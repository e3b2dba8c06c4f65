package reader

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dwrf"
)

// cutUnits drives RunUnits over next and returns the emitted batches. It
// also checks the cutter's memory bound from outside: whenever the cutter
// asks for the next unit, or is handed the next piece of one, the rows it
// has been handed and not yet emitted — its pending rows — are fewer than one
// batch. Safe off the test goroutine.
func cutUnits(t *testing.T, what string, cutter *Reader, next func() (Unit, bool)) ([]*Batch, error) {
	batch := cutter.spec.BatchSize
	supplied, emitted := 0, 0
	var out []*Batch
	held := func() {
		if supplied-emitted >= batch {
			t.Errorf("%s: the cutter holds %d rows, a full batch is %d", what, supplied-emitted, batch)
		}
	}
	err := cutter.RunUnits(context.Background(), func() (Unit, bool) {
		held()
		u, ok := next()
		if !ok || u.Err != nil {
			return u, ok
		}
		read := u.Pieces
		u.Pieces = func(yield func(Piece) error) error {
			return read(func(p Piece) error {
				held()
				if p.Batch != nil {
					supplied += p.Batch.Size
				} else {
					supplied += p.Rows.Rows()
				}
				return yield(p)
			})
		}
		return u, ok
	}, func(b *Batch) error {
		emitted += b.Size
		out = append(out, b)
		return nil
	})
	return out, err
}

// cutAll is cutUnits for the test goroutine: the stream, encoded.
func cutAll(t *testing.T, what string, cutter *Reader, next func() (Unit, bool)) [][]byte {
	t.Helper()
	out, err := cutUnits(t, what, cutter, next)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return encodeBatches(t, out)
}

// scanMemo is the shape of dpp's ScanCache memo without the budget: scans
// cut at the carry the queue's chain hands out, computed once per (file,
// carry) and shared by every worker of every scan over the memo.
type scanMemo struct {
	mu    sync.Mutex
	scans map[scanMemoKey]*FileScan
}

type scanMemoKey struct {
	file  string
	carry int
}

// fill is one worker's Fill over the memo, scanning with r on a miss.
func (m *scanMemo) fill(r *Reader) Fill {
	return func(ctx context.Context, c Claim) error {
		carry, ok := c.Carry(r.spec.BatchSize)
		if !ok {
			c.Deposit(Unit{File: c.File, Err: context.Canceled})
			return context.Canceled
		}
		key := scanMemoKey{c.File, carry}
		m.mu.Lock()
		fs := m.scans[key]
		m.mu.Unlock()
		if fs != nil {
			c.Report(fs.Rows())
			c.Deposit(fs.Unit(c.File, true))
			return nil
		}
		var h *Handoff
		fs, err := r.ScanFile(ctx, c.File, carry, func(rows int) {
			c.Report(rows)
			h = c.HandOff(Unit{File: c.File, Cut: true, Carry: carry})
		}, func(p Piece) error { return h.Send(p) })
		if h == nil {
			c.Deposit(Unit{File: c.File, Err: err})
			return err
		}
		if err == nil {
			m.mu.Lock()
			m.scans[key] = fs
			m.mu.Unlock()
		}
		h.Close(err)
		return err
	}
}

// encodeEnds encodes every memoized scan's head and tail rows, in key order.
func (m *scanMemo) encodeEnds(t *testing.T) map[scanMemoKey][]byte {
	t.Helper()
	out := make(map[scanMemoKey][]byte)
	for key, fs := range m.scans {
		var buf bytes.Buffer
		for _, c := range []*dwrf.Chunk{fs.Head, fs.Tail} {
			if c == nil {
				continue
			}
			if err := datagen.EncodeSamples(&buf, c.Samples()); err != nil {
				t.Fatal(err)
			}
		}
		out[key] = buf.Bytes()
	}
	return out
}

// queueScan cuts files through a ScanQueue of the given number of workers,
// each with its own reader under the Fill that fillOf builds for it, and
// returns the stream and the work of the workers and the cutter together.
// Safe off the test goroutine.
func queueScan(t *testing.T, what string, files []string, workers int, newReader func() *Reader, fillOf func(*Reader) Fill) ([]*Batch, Stats, error) {
	q := NewScanQueue(files, workers+1, nil)
	fillers := make([]*Reader, workers)
	var wg sync.WaitGroup
	for w := range fillers {
		fillers[w] = newReader()
		wg.Add(1)
		go func(r *Reader) {
			defer wg.Done()
			FillQueue(context.Background(), q, fillOf(r), nil)
		}(fillers[w])
	}
	cutter, i := newReader(), 0
	out, err := cutUnits(t, what, cutter, func() (Unit, bool) {
		u, ok := q.Await(i)
		i++
		return u, ok
	})
	q.Abort()
	wg.Wait()
	total := cutter.Stats()
	for _, r := range fillers {
		total.Add(r.Stats())
	}
	return out, total, err
}

// TestEverySourceThroughTheCutterMatchesSerialRun is the one cutter's
// contract. Over random tables, rows per file, batch sizes (dividing the
// file or not), stripe sizes (dividing the batch, not dividing it, holding
// several batches, holding the whole file, and random) and specs, RunUnits
// is fed from every kind of source the
// repo has — serial fill, a ScanQueue of 1–4 workers under each kind of
// Fill (decoded rows; memoized scans cut at the carry the queue's chain
// hands out, cold and warm) and scan-only units cut at carry 0 that the
// cutter re-fills itself (the fleet's shape) — and must emit the serial
// Run's stream byte for byte, with its deterministic counters wherever the
// source does no more work than a serial scan, while never holding a full
// batch of pending rows and never writing to a memoized scan's head or
// tail (two warm consumers share each entry; run under -race).
func TestEverySourceThroughTheCutterMatchesSerialRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	var sawAligned, sawCarry bool
	for trial := 0; trial < 24; trial++ {
		env := randomProjectionEnv(t, rng)
		sawAligned, sawCarry = sawAligned || env.aligned, sawCarry || !env.aligned
		// Four trials in five pin the stripe to the batch in one of the ways
		// that matter; the fifth keeps the random stripe the table came with.
		stripes := "random"
		if shape := trial % 5; shape < 4 {
			stripes = []string{"divides the batch", "does not divide", "holds batches", "exceeds the file"}[shape]
			restripe(t, env.store, env.schema, env.files, stripeShapes(env.spec.BatchSize)[stripes])
		}
		what := fmt.Sprintf("trial %d (batch %d, aligned %v, stripe %s)", trial, env.spec.BatchSize, env.aligned, stripes)
		newReader := func() *Reader {
			r, err := NewReader(env.store, env.spec)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}

		serial := newReader()
		var ref []*Batch
		if err := serial.Run(context.Background(), env.files, func(b *Batch) error {
			ref = append(ref, b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want, wantCounters := encodeBatches(t, ref), counters(serial.Stats())

		// Serial fill, through the instrumented pull.
		cutter, i := newReader(), 0
		got := cutAll(t, what+", serial fill", cutter, func() (Unit, bool) {
			if i >= len(env.files) {
				return Unit{}, false
			}
			i++
			return cutter.FillUnit(context.Background(), env.files[i-1]), true
		})
		mustEqualEncodings(t, what+", serial fill", got, want)
		if c := counters(cutter.Stats()); c != wantCounters {
			t.Fatalf("%s, serial fill: counters %v, serial Run %v", what, c, wantCounters)
		}

		// A ScanQueue of 1–4 workers, filling decoded rows and filling
		// through a cold memo: the workers scan on every miss, and workers
		// plus cutter do exactly a serial scan's work at any pool size.
		var memo *scanMemo
		for workers := 1; workers <= 4; workers++ {
			memo = &scanMemo{scans: make(map[scanMemoKey]*FileScan)}
			for kind, fillOf := range map[string]func(*Reader) Fill{
				"fill":      func(r *Reader) Fill { return FillFrom(r.FillUnit) },
				"cold memo": memo.fill,
			} {
				name := fmt.Sprintf("%s, queue of %d, %s", what, workers, kind)
				out, total, err := queueScan(t, name, env.files, workers, newReader, fillOf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mustEqualEncodings(t, name, encodeBatches(t, out), want)
				if c := counters(total); c != wantCounters {
					t.Fatalf("%s: counters %v, serial Run %v", name, c, wantCounters)
				}
			}
			if len(memo.scans) != len(env.files) {
				t.Fatalf("%s, queue of %d: %d scans memoized for %d files (one carry per file)", what, workers, len(memo.scans), len(env.files))
			}
		}

		// Warm: two consumers share each entry at once, decode nothing, and
		// convert only the batches that straddle a file boundary.
		ends := memo.encodeEnds(t)
		var wg sync.WaitGroup
		warm := make([][]*Batch, 2)
		warmWork := make([]Stats, 2)
		warmErr := make([]error, 2)
		for c, workers := range []int{1, 4} {
			wg.Add(1)
			go func(c, workers int) {
				defer wg.Done()
				warm[c], warmWork[c], warmErr[c] = queueScan(t, fmt.Sprintf("%s, warm consumer %d", what, c), env.files, workers, newReader, memo.fill)
			}(c, workers)
		}
		wg.Wait()
		for c := range warm {
			name := fmt.Sprintf("%s, warm consumer %d", what, c)
			if warmErr[c] != nil {
				t.Fatalf("%s: %v", name, warmErr[c])
			}
			mustEqualEncodings(t, name, encodeBatches(t, warm[c]), want)
			if warmWork[c].RowsDecoded != 0 || warmWork[c].BatchesProduced > int64(len(env.files)) {
				t.Fatalf("%s: decoded %d rows and converted %d batches over %d warm files", name, warmWork[c].RowsDecoded, warmWork[c].BatchesProduced, len(env.files))
			}
		}
		for key, end := range memo.encodeEnds(t) {
			if !bytes.Equal(end, ends[key]) {
				t.Fatalf("%s: a consumer changed the memoized head or tail of %s at carry %d", what, key.file, key.carry)
			}
		}

		// The fleet's shape: every file cut at carry 0, and the cutter
		// re-fills what it enters mid-batch. The shards scanned every file,
		// so the counters match a serial scan only when nothing is re-filled.
		shard, i := newReader(), 0
		cutter = newReader()
		got = cutAll(t, what+", scan-only units", cutter, func() (Unit, bool) {
			if i >= len(env.files) {
				return Unit{}, false
			}
			i++
			return shard.ScanUnit(context.Background(), env.files[i-1]), true
		})
		mustEqualEncodings(t, what+", scan-only units", got, want)
		total := cutter.Stats()
		total.Add(shard.Stats())
		if c := counters(total); env.aligned && c != wantCounters {
			t.Fatalf("%s, scan-only units: counters %v, serial Run %v", what, c, wantCounters)
		}
		if refilled := cutter.Stats().RowsDecoded > 0; refilled == env.aligned {
			t.Fatalf("%s, scan-only units: cutter re-filled = %v on an aligned = %v table", what, refilled, env.aligned)
		}
	}
	if !sawAligned || !sawCarry {
		t.Fatalf("trials covered aligned=%v carry=%v; both are needed", sawAligned, sawCarry)
	}
}

// TestScanOnlyUnitsNeedABackendToRefill: a cutter with no backend passes
// boundary-entered scans through, and fails cleanly — not with a nil
// dereference — on the first file it would have to re-fill.
func TestScanOnlyUnitsNeedABackendToRefill(t *testing.T) {
	env := newTestEnv(t, 60, true)
	spec := baseSpec()
	spec.BatchSize = 48 // 256-row files: every file but the first is entered mid-batch
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	cutter, err := NewReader(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	i, batches := 0, 0
	err = cutter.RunUnits(context.Background(), func() (Unit, bool) {
		if i >= len(files) {
			return Unit{}, false
		}
		i++
		return shard.ScanUnit(context.Background(), files[i-1]), true
	}, func(*Batch) error { batches++; return nil })
	if err == nil || batches != 256/48 {
		t.Fatalf("err = %v after %d batches; want the first file's %d batches, then a no-backend error", err, batches, 256/48)
	}
}
