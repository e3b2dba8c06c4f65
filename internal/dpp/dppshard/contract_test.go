package dppshard_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// streamKind opens one of the five stream kinds behind the same pull
// signature, so one script can hold all of them to the dpp.Stream contract.
// open returns the stream's next and close plus a shutdown for whatever it
// stood up (services, servers).
type streamKind struct {
	name string
	open func(t *testing.T, ctx context.Context, env *fleetEnv) (next func(context.Context) (any, error), closeFn func() error, shutdown func())
}

func shutdownAll(shards []*shard) func() {
	return func() {
		for _, s := range shards {
			s.shutdown()
		}
	}
}

func streamKinds() []streamKind {
	spec := func(env *fleetEnv) dpp.Spec { return dpp.Spec{Spec: alignedSpec(), Files: env.files} }
	local := func(t *testing.T, env *fleetEnv) *dpp.Service {
		svc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	return []streamKind{
		{"dpp.Session", func(t *testing.T, ctx context.Context, env *fleetEnv) (func(context.Context) (any, error), func() error, func()) {
			svc := local(t, env)
			s, err := svc.Open(ctx, spec(env))
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) (any, error) { return s.Next(ctx) }, s.Close, func() { svc.Close() }
		}},
		{"dpp.UnitSession", func(t *testing.T, ctx context.Context, env *fleetEnv) (func(context.Context) (any, error), func() error, func()) {
			svc := local(t, env)
			s, err := svc.OpenUnits(ctx, spec(env), nil)
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) (any, error) { return s.NextPiece(ctx) }, s.Close, func() { svc.Close() }
		}},
		{"dppnet.RemoteSession", func(t *testing.T, ctx context.Context, env *fleetEnv) (func(context.Context) (any, error), func() error, func()) {
			shards := startFleet(t, env, 1)
			s, err := dppnet.NewClient(shards[0].addr).Open(ctx, spec(env))
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) (any, error) { return s.Next(ctx) }, s.Close, shutdownAll(shards)
		}},
		{"dppnet.RemoteUnitSession", func(t *testing.T, ctx context.Context, env *fleetEnv) (func(context.Context) (any, error), func() error, func()) {
			shards := startFleet(t, env, 1)
			s, err := dppnet.NewClient(shards[0].addr).OpenUnits(ctx, spec(env), every(len(env.files)))
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) (any, error) { return s.NextPiece(ctx) }, s.Close, shutdownAll(shards)
		}},
		{"dppshard.Session", func(t *testing.T, ctx context.Context, env *fleetEnv) (func(context.Context) (any, error), func() error, func()) {
			shards := startFleet(t, env, 2)
			fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
			if err != nil {
				t.Fatal(err)
			}
			s, err := fleet.Open(ctx, spec(env))
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context) (any, error) { return s.Next(ctx) }, s.Close, shutdownAll(shards)
		}},
	}
}

// itemBytes is everything a delivered item holds, in wire form: a batch,
// or a unit stream's piece — a batch, or a closing record's tail rows.
func itemBytes(t *testing.T, item any) []byte {
	t.Helper()
	switch it := item.(type) {
	case *reader.Batch:
		return it.AppendTo(nil)
	case dpp.UnitPiece:
		if it.Batch != nil {
			return it.Batch.AppendTo(nil)
		}
		var out []byte
		for _, s := range it.Tail.Samples() {
			out = s.AppendTo(out)
		}
		return out
	}
	t.Fatalf("stream delivered a %T", item)
	return nil
}

// TestStreamContractAllKinds holds every stream kind — local batch and
// unit sessions, their two remote twins, and the fleet session — to the
// same pull contract with one script: the recorded outcome repeats after
// the end, Close is idempotent and wins, a cancelled Next context ends
// nothing, a delivered item never changes, a cancelled Open context ends
// the stream with that error, and nothing leaks.
func TestStreamContractAllKinds(t *testing.T) {
	env := newFleetEnv(t)
	bg := context.Background()
	for _, k := range streamKinds() {
		// items drains the stream to its end, counting what it yields.
		items := func(next func(context.Context) (any, error)) (n int, end error) {
			for {
				if _, err := next(bg); err != nil {
					return n, err
				}
				n++
			}
		}
		// run brackets one script with the leak check.
		run := func(name string, ctx context.Context, script func(t *testing.T, next func(context.Context) (any, error), closeFn func() error)) {
			t.Run(k.name+"/"+name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				next, closeFn, shutdown := k.open(t, ctx, env)
				script(t, next, closeFn)
				closeFn()
				shutdown()
				testutil.WaitForGoroutines(t, before)
			})
		}

		total := 0
		run("next after EOF repeats EOF", bg, func(t *testing.T, next func(context.Context) (any, error), _ func() error) {
			n, end := items(next)
			if end != io.EOF || n == 0 {
				t.Fatalf("drained %d items to %v, want a non-empty stream ending in io.EOF", n, end)
			}
			total = n
			for i := 0; i < 3; i++ {
				if _, err := next(bg); err != io.EOF {
					t.Fatalf("Next %d after io.EOF = %v, want io.EOF", i+1, err)
				}
			}
		})

		run("next after Close is ErrClosed", bg, func(t *testing.T, next func(context.Context) (any, error), closeFn func() error) {
			if _, err := next(bg); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := closeFn(); err != nil {
					t.Fatalf("Close %d = %v, want nil", i+1, err)
				}
			}
			// Items buffered before the Close may still surface; the outcome
			// after them is ErrClosed, every time.
			for i := 0; i < 2; i++ {
				if _, end := items(next); !errors.Is(end, dpp.ErrClosed) {
					t.Fatalf("Next %d after Close = %v, want dpp.ErrClosed", i+1, end)
				}
			}
		})

		run("cancelled Next ctx ends nothing", bg, func(t *testing.T, next func(context.Context) (any, error), _ func() error) {
			dead, cancel := context.WithCancel(bg)
			cancel()
			// With an item already buffered a cancelled call may win it
			// instead of the cancellation: either is the contract, losing
			// an item or ending the stream is not.
			got := 0
			for i := 0; i < 8; i++ {
				_, err := next(dead)
				switch {
				case err == nil:
					got++
				case err == io.EOF && got == total:
				case !errors.Is(err, context.Canceled):
					t.Fatalf("Next under a cancelled ctx = %v, want context.Canceled", err)
				}
			}
			n, end := items(next)
			if end != io.EOF || got+n != total {
				t.Fatalf("after cancelled calls the stream yielded %d+%d items to %v, want %d to io.EOF", got, n, end, total)
			}
		})

		// The remote kinds read every frame of a connection into one buffer;
		// whatever kind, an item is the consumer's for good. Each item is
		// encoded as it arrives and again once the stream has ended and
		// closed — every transport buffer it passed through reused or gone.
		run("items outlive the stream", bg, func(t *testing.T, next func(context.Context) (any, error), closeFn func() error) {
			var held []any
			var fresh [][]byte
			for {
				it, err := next(bg)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, it)
				fresh = append(fresh, itemBytes(t, it))
			}
			closeFn()
			for i, it := range held {
				if !bytes.Equal(itemBytes(t, it), fresh[i]) {
					t.Fatalf("item %d of %d changed after it was delivered", i, len(held))
				}
			}
		})

		octx, cancel := context.WithCancel(bg)
		run("cancelled Open ctx ends the stream", octx, func(t *testing.T, next func(context.Context) (any, error), _ func() error) {
			if _, err := next(bg); err != nil {
				t.Fatal(err)
			}
			cancel()
			// Items already in flight may still surface; the outcome after
			// them is the cancellation, every time.
			for i := 0; i < 2; i++ {
				if n, end := items(next); !errors.Is(end, context.Canceled) {
					t.Fatalf("stream end %d = %v after %d more items, want context.Canceled", i+1, end, n)
				}
			}
		})
		cancel()
	}
}

// TestNextAfterEndRepeatsOutcome pins the fleet session's recorded-outcome
// rule: once the stream has ended — cleanly, or on a shard death with no
// survivors — every further Next repeats that outcome instead of reading
// back the session's own teardown as a cancellation.
func TestNextAfterEndRepeatsOutcome(t *testing.T) {
	env := newFleetEnv(t)
	bg := context.Background()
	open := func(t *testing.T) ([]*shard, *dppshard.Session) {
		shards := startFleet(t, env, 2)
		fleet, err := dppshard.New(dppshard.Config{Addrs: addrsOf(shards)})
		if err != nil {
			t.Fatal(err)
		}
		// Buffer 1 keeps what the client can hold ahead of the consumer well
		// under the file count, so killing the shards provably cuts the stream.
		sess, err := fleet.Open(bg, dpp.Spec{Spec: alignedSpec(), Files: env.files, Buffer: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return shards, sess
	}

	t.Run("clean end", func(t *testing.T) {
		_, sess := open(t)
		drainFleet(t, sess)
		for i := 0; i < 3; i++ {
			if _, err := sess.Next(bg); err != io.EOF {
				t.Fatalf("Next %d after io.EOF = %v, want io.EOF", i+1, err)
			}
		}
	})

	t.Run("shard death", func(t *testing.T) {
		shards, sess := open(t)
		if _, err := sess.Next(bg); err != nil {
			t.Fatal(err)
		}
		for _, s := range shards {
			s.kill()
		}
		var end error
		for end == nil {
			_, end = sess.Next(bg)
		}
		if end == io.EOF || errors.Is(end, context.Canceled) {
			t.Fatalf("fleet with every shard dead ended with %v, want the shard-death error", end)
		}
		for i := 0; i < 3; i++ {
			if _, err := sess.Next(bg); err != end {
				t.Fatalf("Next %d after the terminal error = %v, want the same %v", i+1, err, end)
			}
		}
	})
}
