package reader

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/lakefs"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// restripe rewrites every file in place — same path, same rows — with
// stripes of stripeRows rows, so one table can be scanned under every
// relation between a stripe and a batch.
func restripe(t testing.TB, store *lakefs.Store, schema *datagen.Schema, files []string, stripeRows int) {
	t.Helper()
	for _, f := range files {
		data, err := store.Get(f)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := dwrf.OpenReader(data)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := fr.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		w, err := dwrf.NewFileWriter(schema, dwrf.WriterOptions{StripeRows: stripeRows})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRows(rows); err != nil {
			t.Fatal(err)
		}
		if data, _, err = w.Finish(); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(f, data); err != nil {
			t.Fatal(err)
		}
	}
}

// stripeShapes are the relations between a stripe and a batch of batch rows
// the cutter has to get right: several stripes to a batch (every batch is
// assembled), stripes that straddle batches unevenly, several batches to a
// stripe (sliced, not copied), and one stripe holding the whole of any file
// (the shape a file had before fill handed over stripes).
func stripeShapes(batch int) map[string]int {
	divides := batch
	for d := batch / 2; d >= 2; d-- {
		if batch%d == 0 {
			divides = d
			break
		}
	}
	return map[string]int{
		"divides the batch": divides,
		"does not divide":   batch - 1,
		"holds batches":     2 * batch,
		"exceeds the file":  1 << 20,
	}
}

// stripeReadHook is a store that calls hook when the read of one stripe of
// one file arrives, before serving it: the read at the stripe's offset is
// the first a fill makes of it, under any projection.
type stripeReadHook struct {
	storage.Backend
	path string
	off  int64
	hook func()
}

func (s *stripeReadHook) ReadRange(path string, off, n int64) ([]byte, error) {
	if path == s.path && off == s.off {
		s.hook()
	}
	return s.Backend.ReadRange(path, off, n)
}

// stripeOffset is where stripe k of the file at path starts.
func stripeOffset(t testing.TB, store *lakefs.Store, path string, k int) int64 {
	t.Helper()
	data, err := store.Get(path)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := dwrf.OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if k >= fr.NumStripes() {
		t.Fatalf("%s has %d stripes, want stripe %d", path, fr.NumStripes(), k)
	}
	off, _ := fr.StripeByteRange(k)
	return off
}

// TestCancelBetweenStripes: a context cancelled while stripe 2 of the first
// file is being fetched stops the scan at that stripe's end — three stripes
// decoded, not the file's four, and no other file touched by a single
// scanner — and the scan returns ctx.Err() with no goroutine left behind,
// serial and with the scan on a worker of its own. Two workers share the
// file's stripes: the one not reading stripe 2 may have taken stripe 3 and
// fetched it before the cancellation, never after it was seen, and no
// stripe of another file. Under a queue of two workers every claim either
// was consumed by the cutter or sits deposited: nothing a later Await would
// wait on forever.
func TestCancelBetweenStripes(t *testing.T) {
	env := newTestEnv(t, 60, true)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	const stripeRows = 64 // 256-row files: four stripes each
	restripe(t, env.store, env.schema, files, stripeRows)
	off := stripeOffset(t, env.store, files[0], 2)

	for _, workers := range []int{0, 1, 2} { // the serial Run, a queue of one, a queue of two
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		store := &stripeReadHook{Backend: env.store, path: files[0], off: off, hook: cancel}
		work, queued, err := runQueued(ctx, t, store, baseSpec(), files, workers, func(*Batch) error { return nil })
		work.Add(queued)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: Run cancelled between stripes = %v, want context.Canceled", workers, err)
		}
		most := int64(3 * stripeRows)
		if workers == 2 {
			most += stripeRows // stripe 3, if the other worker fetched it before the cancellation
		}
		if got := work.RowsDecoded; got < 3*stripeRows || got > most {
			t.Fatalf("%d workers: decoded %d rows, want the %d of the three stripes fetched before the cancellation was seen (%d at most)", workers, got, 3*stripeRows, most)
		}
		testutil.WaitForGoroutines(t, before)
		cancel()
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	store := &stripeReadHook{Backend: env.store, path: files[0], off: off, hook: cancel}
	q := NewScanQueue(planOf(t, env.store, baseSpec().BatchSize, files), len(files), nil) // no worker ever parks on the window: nothing aborts this queue
	var mu sync.Mutex
	claimed := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		worker, err := NewReader(store, baseSpec())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill := scanFill(worker)
			FillQueue(ctx, q, func(ctx context.Context, c Claim) error {
				mu.Lock()
				claimed = max(claimed, c.Index+1)
				mu.Unlock()
				return fill(ctx, c)
			}, nil)
		}()
	}
	cutter, err := NewReader(store, baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := cutter.RunQueue(ctx, q, func(*Batch) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunQueue cancelled between stripes = %v, want context.Canceled", err)
	}
	wg.Wait() // the workers see the cancellation themselves: the queue is not aborted
	for i := q.Pos(); i < claimed; i++ {
		if _, ok := q.Await(i); !ok {
			t.Fatalf("claim %d of %d was never deposited", i, claimed)
		}
	}
	q.Abort()
	testutil.WaitForGoroutines(t, before)
}

// TestCancelledHelperHandsBackItsStripe: a worker whose context is done
// while the scan it takes a stripe of is not — a memo's compute, which
// outlives the session whose worker runs it — fetches nothing and hands the
// stripe back, and the compute's own worker reads it: the scan is whole. The
// helper arrives while the computing worker's read of stripe 1 is parked,
// takes stripe 2, and has left before that read is served.
func TestCancelledHelperHandsBackItsStripe(t *testing.T) {
	env := newTestEnv(t, 60, true)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	files = files[:1]
	restripe(t, env.store, env.schema, files, 64) // a 256-row file: four stripes
	spec := baseSpec()
	serial, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	var ref []*Batch
	if err := serial.Run(context.Background(), files, func(b *Batch) error { ref = append(ref, b); return nil }); err != nil {
		t.Fatal(err)
	}

	q := NewScanQueue(planOf(t, env.store, spec.BatchSize, files), 2, nil)
	memo := &scanMemo{scans: make(map[scanMemoKey]*FileScan)}
	helper, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var once sync.Once
	store := &stripeReadHook{Backend: env.store, path: files[0], off: stripeOffset(t, env.store, files[0], 1), hook: func() {
		once.Do(func() { FillQueue(cancelled, q, memo.fill(helper), nil) })
	}}
	computer, err := NewReader(store, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		FillQueue(context.Background(), q, memo.fill(computer), nil)
	}()
	var got []*Batch
	if err := serial.RunQueue(context.Background(), q, func(b *Batch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	q.Abort()
	wg.Wait()
	mustEqualEncodings(t, "a compute its helper left", encodeBatches(t, got), encodeBatches(t, ref))
	if h := helper.Stats(); h.ReadBytes != 0 || h.RowsDecoded != 0 {
		t.Fatalf("the cancelled helper read %d bytes and decoded %d rows", h.ReadBytes, h.RowsDecoded)
	}
	if c := computer.Stats().RowsDecoded; c != 256 {
		t.Fatalf("the compute's worker decoded %d rows, want the file's 256", c)
	}
}

// TestStripeWaitIsWorkerStall: the assembler's wait for the next stripe of
// a unit already deposited is charged to the queue's Stall exactly as its
// wait for a deposit is — it is the same starvation, and the one signal the
// autoscaler grows a pool on. The worker here withholds the second stripe
// until the assembler's wait for it shows in Stall, which nothing but that
// wait can move once the unit has been awaited.
func TestStripeWaitIsWorkerStall(t *testing.T) {
	q := NewScanQueue(queueFiles(1), 1, nil)
	awaited := make(chan time.Duration, 1)
	stripe := Piece{Rows: &dwrf.Chunk{}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		FillQueue(context.Background(), q, func(_ context.Context, c Claim) error {
			h := NewFileScan(0, false)
			h.Follow(q.OrderedMerge, c.Index, Unit{File: c.File}, nil)
			err := func() error {
				if err := h.Send(stripe); err != nil {
					return err
				}
				base := <-awaited
				for deadline := time.Now().Add(20 * time.Second); q.Stall() <= base; runtime.Gosched() {
					if time.Now().After(deadline) {
						return errors.New("the assembler's wait for the second stripe never showed in Stall")
					}
				}
				return h.Send(stripe)
			}()
			h.Close(err)
			return err
		}, nil)
	}()

	u, ok := q.Await(0)
	if !ok || u.Pieces == nil {
		t.Fatalf("Await(0) = (%+v, %v), want the unit deposited with its stripes still to come", u, ok)
	}
	awaited <- q.Stall()
	got := 0
	if err := u.Pieces(func(Piece) error { got++; return nil }); err != nil || got != 2 {
		t.Fatalf("the unit's stream delivered %d stripes and %v; want 2, nil", got, err)
	}
	wg.Wait()
}
