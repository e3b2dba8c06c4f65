package dpp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/reader"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// rendezvousStore lets stripe reads through only once stripes of two
// different files are being read at the same time: a scan that fills one
// file at a time never gets past its first. A read that waits out the
// timeout fails the scan rather than hanging the test.
type rendezvousStore struct {
	storage.Backend
	timeout time.Duration

	mu      sync.Mutex
	reads   map[string]int  // ranged reads seen per file; the first two are dwrf.Open's trailer and footer
	reading map[string]bool // files whose stripes have been asked for
	met     chan struct{}   // closed when the second such file arrives
}

func newRendezvousStore(b storage.Backend, timeout time.Duration) *rendezvousStore {
	return &rendezvousStore{Backend: b, timeout: timeout,
		reads: make(map[string]int), reading: make(map[string]bool), met: make(chan struct{})}
}

func (s *rendezvousStore) ReadRange(path string, off, n int64) ([]byte, error) {
	s.mu.Lock()
	s.reads[path]++
	stripe := s.reads[path] > 2
	if stripe && !s.reading[path] {
		s.reading[path] = true
		if len(s.reading) == 2 {
			close(s.met)
		}
	}
	s.mu.Unlock()
	if stripe {
		select {
		case <-s.met:
		case <-time.After(s.timeout):
			return nil, fmt.Errorf("stripe read of %s waited %v and no second file was read beside it", path, s.timeout)
		}
	}
	return s.Backend.ReadRange(path, off, n)
}

// TestSharedSessionIsAPool: a ShareScans session is the same worker pool
// any session is. Cold, with Readers: 3, over a store that serves stripes
// only while two different files are being read at once, a misaligned scan
// — where file i+1 cannot even be looked up before file i's row count is
// known — must still overlap its fills (the count travels down the carry
// chain from the footer, before any stripe is fetched), finish
// byte-identical to the serial reference with a serial scan's counters and
// one cache miss per file, report its three workers and the merge's real
// starvation, and resize.
func TestSharedSessionIsAPool(t *testing.T) {
	env := newTestEnv(t, 200)
	spec := kjtSpec() // batch 48 over 256-row files: rows carry into every file but the first
	wantEnc, wantStats := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Skip("need at least 3 files to overlap fills")
	}

	svc, err := dpp.New(dpp.Config{Backend: newRendezvousStore(env.store, 20*time.Second), Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: true, Readers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if w := sess.Stats().Scheduler.Workers; w != 3 {
		t.Fatalf("ShareScans session with Readers: 3 reports %d workers", w)
	}

	first, err := sess.Next(context.Background())
	if err != nil {
		t.Fatalf("first batch: %v", err)
	}
	if got := sess.Resize(2); got != 2 {
		t.Fatalf("Resize(2) = %d", got)
	}
	var buf bytes.Buffer
	if err := first.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	gotEnc := append([][]byte{buf.Bytes()}, drainSession(t, sess)...)

	if len(gotEnc) != len(wantEnc) {
		t.Fatalf("pooled shared session produced %d batches, serial reference %d", len(gotEnc), len(wantEnc))
	}
	for i := range wantEnc {
		if !bytes.Equal(gotEnc[i], wantEnc[i]) {
			t.Fatalf("batch %d differs from serial reference", i)
		}
	}
	st := sess.Stats()
	if got, want := counters(st.Reader), counters(wantStats); got != want {
		t.Fatalf("cold pooled counters %v, serial reference %v", got, want)
	}
	if c := st.Cache; c.Misses != int64(len(files)) || c.Hits != 0 {
		t.Fatalf("cold pooled cache traffic %+v, want %d misses (one lookup per file)", c, len(files))
	}
	if sc := st.Scheduler; sc.Workers != 2 || sc.ScaleDowns != 1 || sc.ScaleUps != 0 || sc.WorkerStall <= 0 {
		t.Fatalf("scheduler stats %+v, want 2 workers after one scale-down and nonzero worker stall", sc)
	}
	if got := svc.Stats().Scheduler; got.ScaleDowns != 1 || got.WorkerStall <= 0 {
		t.Fatalf("service scheduler stats %+v do not include the shared session", got)
	}
}

// TestSlowTrainerNeverStallsAnothersScan: a scan is served while it is
// computed, but never at the pace of the session computing it. S1 takes one
// batch and stops pulling; its worker is inside the ScanCache's compute of
// the first file — the read of the file's last stripe is parked — with S1's
// output buffer full behind it. S2, asking for the same key, coalesces onto
// that compute: it is handed the three batches cut so far, and then its
// cutter starves for the file's next piece. Released, the compute must run
// to its end whatever S1's consumer does, and S2 must be served the file and
// reach io.EOF with the serial reference's stream. It would hang if the memo
// handed S1's batches to S1's bounded buffer from inside the single-flight.
func TestSlowTrainerNeverStallsAnothersScan(t *testing.T) {
	env := newStripedEnv(t)
	spec := dedupSpec()
	wantEnc, _ := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := stripeRange(t, env.store, files[0], 7) // the last of eight: three batches are cut before it
	store := &parkedStripeStore{Backend: env.store, path: files[0], off: off,
		arrived: make(chan struct{}), release: make(chan struct{})}
	clock := testutil.NewClock(time.Unix(0, 0))
	svc, err := dpp.New(dpp.Config{Backend: store, Catalog: env.catalog, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// A test that fails here fails by this deadline, not by hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	shared := dpp.Spec{Spec: spec, ShareScans: true, Buffer: 1}
	s1, err := svc.Open(ctx, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	var release sync.Once
	defer release.Do(func() { close(store.release) }) // a failure must not leave a worker parked under Close
	if _, err := s1.Next(ctx); err != nil {
		t.Fatalf("S1's first batch: %v", err)
	}
	select {
	case <-store.arrived: // S1 is computing the file: past seven stripes, parked on the eighth
	case <-ctx.Done():
		t.Fatal("S1's read of the file's last stripe never arrived")
	}

	s2, err := svc.Open(ctx, shared)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var gotEnc [][]byte
	for len(gotEnc) < 3 {
		b, err := s2.Next(ctx)
		if err != nil {
			t.Fatalf("S2's batch %d, cut before the parked stripe: %v", len(gotEnc), err)
		}
		gotEnc = append(gotEnc, encodeBatch(t, b))
	}
	// S2's cutter starves for the file its worker is waiting on S1 for.
	testutil.Eventually(t, func() bool {
		clock.Advance(time.Second)
		return s2.Stats().Scheduler.WorkerStall > 0
	}, "S2 never waited for the file S1 is computing")
	release.Do(func() { close(store.release) })

	for {
		b, err := s2.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("S2 after %d batches, with S1's trainer stopped: %v", len(gotEnc), err)
		}
		gotEnc = append(gotEnc, encodeBatch(t, b))
	}
	if len(gotEnc) != len(wantEnc) {
		t.Fatalf("S2: %d batches, serial reference %d", len(gotEnc), len(wantEnc))
	}
	for i := range wantEnc {
		if !bytes.Equal(gotEnc[i], wantEnc[i]) {
			t.Fatalf("S2: batch %d differs from the serial reference", i)
		}
	}
	if c := s2.Stats().Cache; c.Hits < 1 {
		t.Fatalf("S2's cache traffic %+v: it was not served the file S1 computed", c)
	}
}

// parkOn opens a ShareScans session S1 over a store that parks the read of
// stripe k of the first file, takes S1's first batch, and returns once S1's
// worker — inside the ScanCache's compute of that file — is parked there.
// release lets the read through; it is idempotent, and a caller defers it
// after S1's Close, so that a failure never leaves a worker parked under
// Close.
func parkOn(t *testing.T, ctx context.Context, env *testEnv, cfg dpp.Config, spec dpp.Spec, k int) (svc *dpp.Service, s1 *dpp.Session, reads *atomic.Int64, release func()) {
	t.Helper()
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := stripeRange(t, env.store, files[0], k)
	store := &parkedStripeStore{Backend: env.store, path: files[0], off: off,
		arrived: make(chan struct{}), release: make(chan struct{})}
	counted := &countingStore{Backend: store}
	var once sync.Once
	release = func() { once.Do(func() { close(store.release) }) }
	cfg.Backend, cfg.Catalog = counted, env.catalog
	if svc, err = dpp.New(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	if s1, err = svc.Open(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Next(ctx); err != nil {
		release()
		t.Fatalf("S1's first batch: %v", err)
	}
	select {
	case <-store.arrived:
	case <-ctx.Done():
		release()
		t.Fatalf("S1's read of stripe %d never arrived", k)
	}
	return svc, s1, &counted.reads, release
}

// countingStore counts the ranged reads that reach its backend.
type countingStore struct {
	storage.Backend
	reads atomic.Int64
}

func (s *countingStore) ReadRange(path string, off, n int64) ([]byte, error) {
	s.reads.Add(1)
	return s.Backend.ReadRange(path, off, n)
}

// TestCoalescedSessionIsServedWhileComputed: a session coalesced onto another
// session's compute of a file is served the file while it is computed, not
// when the compute ends. With S1's compute of the first file parked on its
// last stripe — three batches cut before it — a second ShareScans session
// receives those three batches while the read is still parked: locally,
// through a dppnet server, and as a unit session, piece for piece. Released,
// it reads the serial reference to its end.
func TestCoalescedSessionIsServedWhileComputed(t *testing.T) {
	env := newStripedEnv(t)
	spec := dedupSpec() // 64-row batches over 32-row stripes
	wantEnc, _ := serialReference(t, env, spec)
	shared := dpp.Spec{Spec: spec, ShareScans: true, Buffer: 1}
	for _, way := range []string{"local", "remote", "units"} {
		t.Run(way, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			svc, s1, _, release := parkOn(t, ctx, env, dpp.Config{}, shared, 7)
			defer s1.Close()
			defer release()

			// next is S2's next batch (a unit session's next piece is one: the
			// first file is entered on a batch boundary, and its tail comes
			// after the parked stripe).
			var next func(context.Context) (*reader.Batch, error)
			var hits func() int64
			var units *dpp.UnitSession
			switch way {
			case "local":
				s2, err := svc.Open(ctx, shared)
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				next, hits = s2.Next, func() int64 { return s2.Stats().Cache.Hits }
			case "remote":
				addr, stop := serveOn(t, svc, nil)
				defer stop()
				s2, err := dppnet.NewClient(addr).Open(ctx, shared)
				if err != nil {
					t.Fatal(err)
				}
				defer s2.Close()
				next, hits = s2.Next, func() int64 { st, _ := s2.Stats(); return st.Cache.Hits }
			case "units":
				u, err := svc.OpenUnits(ctx, shared, []int{0})
				if err != nil {
					t.Fatal(err)
				}
				defer u.Close()
				units = u
				next = func(ctx context.Context) (*reader.Batch, error) {
					p, err := u.NextPiece(ctx)
					if err == nil && p.Batch == nil {
						err = fmt.Errorf("piece %+v is not a batch", p)
					}
					return p.Batch, err
				}
				hits = func() int64 { return u.Stats().Cache.Hits }
			}

			parked, stop := context.WithTimeout(ctx, 10*time.Second)
			defer stop()
			for i := 0; i < 3; i++ {
				b, err := next(parked)
				if err != nil {
					t.Fatalf("S2's batch %d with S1's compute parked on the file's last stripe: %v", i, err)
				}
				if !bytes.Equal(encodeBatch(t, b), wantEnc[i]) {
					t.Fatalf("S2's batch %d differs from the serial reference", i)
				}
			}
			release()

			if units != nil {
				// The rest of the one file S2 serves: its last batch, its
				// closing record — no rows, a hit — and the end.
				if b, err := next(ctx); err != nil || !bytes.Equal(encodeBatch(t, b), wantEnc[3]) {
					t.Fatalf("the unit session's fourth piece: %v", err)
				}
				if p, err := units.NextPiece(ctx); err != nil || p.Tail == nil || p.Tail.Rows() != 0 || !p.Hit {
					t.Fatalf("the unit session's closing record: %+v, %v", p, err)
				}
				if _, err := units.NextPiece(ctx); err != io.EOF {
					t.Fatalf("the unit session after its one file: %v, want io.EOF", err)
				}
				return
			}
			got := 3
			for ; ; got++ {
				b, err := next(ctx)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("S2 after %d batches: %v", got, err)
				}
				if got >= len(wantEnc) || !bytes.Equal(encodeBatch(t, b), wantEnc[got]) {
					t.Fatalf("S2's batch %d differs from the serial reference", got)
				}
			}
			if got != len(wantEnc) {
				t.Fatalf("S2: %d batches, serial reference %d", got, len(wantEnc))
			}
			if hits() < 1 {
				t.Fatal("S2 was not served the file S1 computed")
			}
		})
	}
}

// TestLeaderLeavesItsFollowers: the session computing a shared scan may go
// while others follow it. (a) S1 closed while S2 follows its parked compute:
// S1's Close waits for the file, S2 reads the serial stream, and the file is
// resident once. (b) Closed with nobody following, S1's compute stops at its
// next piece — no stripe is read after the parked one — and leaves no entry.
// (c) Under a budget smaller than one file, S2 follows a log that outgrows the
// budget to its end, and the log is not retained.
func TestLeaderLeavesItsFollowers(t *testing.T) {
	env := newStripedEnv(t)
	spec := dedupSpec()
	wantEnc, _ := serialReference(t, env, spec)
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	key := dpp.ScanKey{File: files[0], Fingerprint: spec.Fingerprint()}
	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	one, err := r.ScanFile(context.Background(), files[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := dpp.Spec{Spec: spec, ShareScans: true, Buffer: 1}

	// follow opens S2 on svc and takes the three batches S1's compute has cut.
	follow := func(t *testing.T, ctx context.Context, svc *dpp.Service) (*dpp.Session, [][]byte) {
		t.Helper()
		s2, err := svc.Open(ctx, shared)
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		for len(got) < 3 {
			b, err := s2.Next(ctx)
			if err != nil {
				t.Fatalf("S2's batch %d, cut before the parked stripe: %v", len(got), err)
			}
			got = append(got, encodeBatch(t, b))
		}
		return s2, got
	}
	// drain reads s2 to io.EOF after got and holds it to the serial stream.
	drain := func(t *testing.T, ctx context.Context, s2 *dpp.Session, got [][]byte) {
		t.Helper()
		for {
			b, err := s2.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("S2 after %d batches: %v", len(got), err)
			}
			got = append(got, encodeBatch(t, b))
		}
		if len(got) != len(wantEnc) {
			t.Fatalf("S2: %d batches, serial reference %d", len(got), len(wantEnc))
		}
		for i := range wantEnc {
			if !bytes.Equal(got[i], wantEnc[i]) {
				t.Fatalf("S2: batch %d differs from the serial reference", i)
			}
		}
	}
	// closeAsync closes S1 on another goroutine and returns once its queue
	// has been aborted — its Next, past the batches already buffered,
	// reports the close, which teardown signals after the abort — with a
	// channel closed when Close returns.
	closeAsync := func(t *testing.T, ctx context.Context, s *dpp.Session) chan struct{} {
		t.Helper()
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		for {
			_, err := s.Next(ctx)
			if err == nil {
				continue // batches S1 had cut before its Close
			}
			if !errors.Is(err, dpp.ErrClosed) {
				t.Fatalf("S1's Next while it closes: %v, want ErrClosed", err)
			}
			return closed
		}
	}

	t.Run("followed", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc, s1, _, release := parkOn(t, ctx, env, dpp.Config{}, shared, 7)
		defer s1.Close()
		defer release()
		s2, got := follow(t, ctx, svc)
		defer s2.Close()
		closed := closeAsync(t, ctx, s1)
		select {
		case <-closed:
			t.Fatal("S1's Close returned while its compute, followed by S2, was parked")
		case <-time.After(100 * time.Millisecond):
		}
		release()
		<-closed
		drain(t, ctx, s2, got)
		n := 0
		for _, e := range svc.ScanCache().Entries() {
			if e.ScanKey == key {
				n++
			}
		}
		if n != 1 || !svc.ScanCache().Contains(key) {
			t.Fatalf("the file S1 left is resident %d times, want once", n)
		}
	})

	t.Run("unfollowed", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc, s1, reads, release := parkOn(t, ctx, env, dpp.Config{}, shared, 3)
		defer release()
		closed := closeAsync(t, ctx, s1)
		before := reads.Load()
		release()
		<-closed
		if n := reads.Load() - before; n != 0 {
			t.Fatalf("the compute read %d ranges after the parked stripe, with nobody left to read it", n)
		}
		if st := svc.ScanCache().Stats(); svc.ScanCache().Contains(key) || st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("a compute nobody followed left %+v", st)
		}
	})

	// Two workers share the compute's stripes: with the reads of stripes 2
	// and 3 parked under both, S1 closes with nobody following. Stripe 2 is
	// released first: it completes no batch, so nothing is sent for nobody
	// until stripe 3 is, and the worker that read it takes stripes 4 to 7
	// meanwhile — and must fetch none of them, for a log nobody is left to
	// read. Released, neither worker fetches another range, and the compute
	// leaves no entry. (The pause between the releases only gives that worker
	// the time to try; no outcome depends on it.)
	t.Run("unfollowed, two workers", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var parked []*parkedStripeStore
		var store storage.Backend = env.store
		for _, k := range []int{2, 3} {
			off, _ := stripeRange(t, env.store, files[0], k)
			p := &parkedStripeStore{Backend: store, path: files[0], off: off,
				arrived: make(chan struct{}), release: make(chan struct{})}
			parked, store = append(parked, p), p
		}
		released := 0
		release := func() { // a failure must not leave a worker parked under Close
			for ; released < len(parked); released++ {
				close(parked[released].release)
			}
		}
		counted := &countingStore{Backend: store}
		svc, err := dpp.New(dpp.Config{Backend: counted, Catalog: env.catalog})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		two := shared
		two.Readers = 2
		s1, err := svc.Open(ctx, two)
		if err != nil {
			t.Fatal(err)
		}
		defer s1.Close()
		defer release()
		if _, err := s1.Next(ctx); err != nil {
			t.Fatalf("S1's first batch: %v", err)
		}
		for _, p := range parked {
			select {
			case <-p.arrived:
			case <-ctx.Done():
				t.Fatal("S1's workers never both parked")
			}
		}
		closed := closeAsync(t, ctx, s1)
		before := counted.reads.Load()
		close(parked[0].release)
		released++
		time.Sleep(50 * time.Millisecond)
		release()
		<-closed
		if n := counted.reads.Load() - before; n != 0 {
			t.Fatalf("the compute's workers read %d ranges after the parked stripes, with nobody left to read them", n)
		}
		if st := svc.ScanCache().Stats(); svc.ScanCache().Contains(key) || st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("a compute nobody followed left %+v", st)
		}
	})

	t.Run("outgrows the budget", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc, s1, _, release := parkOn(t, ctx, env, dpp.Config{ScanCacheBytes: one.MemBytes() / 2}, shared, 7)
		defer s1.Close()
		defer release()
		s2, got := follow(t, ctx, svc)
		defer s2.Close()
		release()
		drain(t, ctx, s2, got)
		if st := svc.ScanCache().Stats(); svc.ScanCache().Contains(key) || st.Bytes != 0 {
			t.Fatalf("a log over the budget was retained: %+v", st)
		}
	})
}
