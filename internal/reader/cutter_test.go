package reader

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dwrf"
	"repro/internal/storage"
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
// cut at the carry the plan hands out, computed once per (file,
// carry) and shared by every worker of every scan over the memo.
type scanMemo struct {
	mu    sync.Mutex
	scans map[scanMemoKey]*FileScan
}

type scanMemoKey struct {
	file  string
	carry int
}

// get is the reader.Memo over the map: a hit, or scan into a kept log and
// keep it.
func (m *scanMemo) get(ctx context.Context, file string, carry int, scan func(context.Context, *FileScan) error) (*FileScan, bool, error) {
	key := scanMemoKey{file, carry}
	m.mu.Lock()
	fs := m.scans[key]
	m.mu.Unlock()
	if fs != nil {
		return fs, true, nil
	}
	fs = NewFileScan(carry, true)
	if err := scan(ctx, fs); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	m.scans[key] = fs
	m.mu.Unlock()
	return fs, false, nil
}

// fill is one worker's Fill over the memo, scanning with r on a miss.
func (m *scanMemo) fill(r *Reader) Fill { return r.ScanFill(m.get) }

// scanFill is one worker's Fill with no memo.
func scanFill(r *Reader) Fill { return r.ScanFill(nil) }

// encodeEnds encodes every memoized scan's head and tail rows, in key order.
func (m *scanMemo) encodeEnds(t *testing.T) map[scanMemoKey][]byte {
	t.Helper()
	out := make(map[scanMemoKey][]byte)
	for key, fs := range m.scans {
		var buf []byte
		head, _, tail := split(fs)
		for _, c := range []*dwrf.Chunk{head, tail} {
			if c == nil {
				continue
			}
			for _, s := range c.Samples() {
				buf = s.AppendTo(buf)
			}
		}
		out[key] = buf
	}
	return out
}

// startWorkers runs workers fill workers over q, each with its own reader
// under the Fill that fillOf builds for it. wait blocks until every one has
// exited and returns their work together.
func startWorkers(ctx context.Context, q *ScanQueue, workers int, newReader func() *Reader, fillOf func(*Reader) Fill) (wait func() Stats) {
	fillers := make([]*Reader, workers)
	var wg sync.WaitGroup
	for w := range fillers {
		fillers[w] = newReader()
		wg.Add(1)
		go func(r *Reader) {
			defer wg.Done()
			FillQueue(ctx, q, fillOf(r), nil)
		}(fillers[w])
	}
	return func() Stats {
		wg.Wait()
		var work Stats
		for _, r := range fillers {
			work.Add(r.Stats())
		}
		return work
	}
}

// runQueued is Run through a ScanQueue: workers scan workers under the one
// fill, a cutter of its own joins them into emit. It returns the cutter's work
// and the workers', apart, once every goroutine it started has exited. With no
// workers it is the serial Run itself, all of it the cutter's work.
func runQueued(ctx context.Context, t testing.TB, store storage.Backend, spec Spec, files []string, workers int, emit func(*Batch) error) (cut, work Stats, err error) {
	t.Helper()
	newReader := func() *Reader {
		r, err := NewReader(store, spec)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	cutter := newReader()
	if workers == 0 {
		err = cutter.Run(ctx, files, emit)
		return cutter.Stats(), Stats{}, err
	}
	q := NewScanQueue(planOf(t, store, spec.BatchSize, files), workers+1, nil)
	wait := startWorkers(ctx, q, workers, newReader, scanFill)
	err = cutter.RunQueue(ctx, q, emit)
	q.Abort()
	return cutter.Stats(), wait(), err
}

// queueScan cuts files through a ScanQueue of the given number of workers,
// each with its own reader under the Fill that fillOf builds for it, and
// returns the stream and the work of the cutter and of the workers. Safe off
// the test goroutine.
func queueScan(t *testing.T, what string, plan []Planned, workers int, newReader func() *Reader, fillOf func(*Reader) Fill) (out []*Batch, cut, work Stats, err error) {
	q := NewScanQueue(plan, workers+1, nil)
	wait := startWorkers(context.Background(), q, workers, newReader, fillOf)
	cutter, i := newReader(), 0
	out, err = cutUnits(t, what, cutter, func() (Unit, bool) {
		u, ok := q.Await(i)
		i++
		return u, ok
	})
	q.Abort()
	return out, cutter.Stats(), wait(), err
}

// cutterBatches is how many batches of a scan over files of these row counts
// hold rows of two files, or are the final short one: the batches the cutter
// converts itself, counted from the row counts alone.
func cutterBatches(fileRows []int, batch int) (n int64) {
	pending := 0
	for _, rows := range fileRows {
		if pending > 0 && pending+rows >= batch {
			n++
		}
		pending = (pending + rows) % batch
	}
	if pending > 0 {
		n++
	}
	return n
}

// planOf plans files for batch-row batches from their footers' row counts,
// as the catalog that recorded them at landing would.
func planOf(t testing.TB, store storage.Backend, batch int, files []string) []Planned {
	t.Helper()
	pubs := make([]storage.PublishedFile, len(files))
	for i, rows := range fileRowCounts(t, store, files) {
		pubs[i] = storage.PublishedFile{Path: files[i], Rows: rows}
	}
	plan, _ := Plan(batch, 0, pubs)
	return plan
}

// fileRowCounts reads each file's row count from its footer.
func fileRowCounts(t testing.TB, store storage.Backend, files []string) []int {
	t.Helper()
	rows := make([]int, len(files))
	for i, f := range files {
		size, err := store.Size(f)
		if err != nil {
			t.Fatal(err)
		}
		data, err := store.ReadRange(f, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := dwrf.OpenReader(data)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = fr.NumRows()
	}
	return rows
}

// TestEverySourceThroughTheCutterMatchesSerialRun is the one cutter's
// contract. Over random tables, rows per file, batch sizes (dividing the
// file or not), stripe sizes (dividing the batch, not dividing it, holding
// several batches, holding the whole file, and random) and specs, RunUnits
// is fed from every kind of source the
// repo has — units scanned as the cutter reaches them, a ScanQueue of 1–4
// workers under the one fill, which share each file's stripes, bare and
// behind a memo (scans cut at the carry the plan hands out, cold — the
// compute's worker helped by the others — and warm) and units another reader cut at the
// plan's carries, which the cutter only joins (the fleet's shape) — and must emit
// the serial Run's stream byte for byte, with its deterministic counters
// wherever the source does no more work than a serial scan — the cutter's own
// share of them being the batches that straddle files and the final short
// one — while never holding a full batch of pending
// rows and never writing to a memoized scan's head or tail (two warm consumers
// share each entry; run under -race).
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

		// Serial fill, through the instrumented pull: each file scanned as the
		// cutter reads it, at the carry the files before it leave.
		fileRows := fileRowCounts(t, env.store, env.files)
		cutter, i, carry := newReader(), 0, 0
		got := cutAll(t, what+", serial fill", cutter, func() (Unit, bool) {
			if i >= len(env.files) {
				return Unit{}, false
			}
			u := cutter.ScanUnit(context.Background(), env.files[i], carry)
			carry = (carry + fileRows[i]) % env.spec.BatchSize
			i++
			return u, true
		})
		mustEqualEncodings(t, what+", serial fill", got, want)
		if c := counters(cutter.Stats()); c != wantCounters {
			t.Fatalf("%s, serial fill: counters %v, serial Run %v", what, c, wantCounters)
		}

		// A ScanQueue of 1–4 workers, scanning bare and through a cold memo:
		// the workers scan every file, and workers plus cutter do exactly a
		// serial scan's work at any pool size — the cutter the batches only it
		// can, which on an aligned table is at most the final short one.
		var memo *scanMemo
		plan := planOf(t, env.store, env.spec.BatchSize, env.files)
		wantCut := cutterBatches(fileRows, env.spec.BatchSize)
		for workers := 1; workers <= 4; workers++ {
			memo = &scanMemo{scans: make(map[scanMemoKey]*FileScan)}
			for kind, fillOf := range map[string]func(*Reader) Fill{
				"scan":      scanFill,
				"cold memo": memo.fill,
			} {
				name := fmt.Sprintf("%s, queue of %d, %s", what, workers, kind)
				out, cut, work, err := queueScan(t, name, plan, workers, newReader, fillOf)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				mustEqualEncodings(t, name, encodeBatches(t, out), want)
				if cut.BatchesProduced != wantCut || cut.RowsDecoded != 0 ||
					(wantCut == 0 && (cut.ConvertValues != 0 || cut.ProcessOps != 0)) {
					t.Fatalf("%s: the cutter's own reader did %+v; want %d batches converted (those that straddle files, and the final short one) and nothing else", name, cut, wantCut)
				}
				work.Add(cut)
				if c := counters(work); c != wantCounters {
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
				var work Stats
				warm[c], warmWork[c], work, warmErr[c] = queueScan(t, fmt.Sprintf("%s, warm consumer %d", what, c), plan, workers, newReader, memo.fill)
				warmWork[c].Add(work)
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

		// The fleet's shape: every file cut by another reader — a shard's — at
		// the carry the plan gives it, and the cutter only joins: it decodes
		// nothing, and the two do a serial scan's work between them.
		shard, i := newReader(), 0
		cutter = newReader()
		got = cutAll(t, what+", units cut elsewhere", cutter, func() (Unit, bool) {
			if i >= len(plan) {
				return Unit{}, false
			}
			i++
			return shard.ScanUnit(context.Background(), plan[i-1].File, plan[i-1].Carry), true
		})
		mustEqualEncodings(t, what+", units cut elsewhere", got, want)
		total := cutter.Stats()
		total.Add(shard.Stats())
		if c := counters(total); c != wantCounters {
			t.Fatalf("%s, units cut elsewhere: counters %v, serial Run %v", what, c, wantCounters)
		}
		if cutter.Stats().RowsDecoded != 0 || cutter.Stats().ReadBytes != 0 {
			t.Fatalf("%s, units cut elsewhere: the cutter read %d bytes and decoded %d rows", what, cutter.Stats().ReadBytes, cutter.Stats().RowsDecoded)
		}
	}
	if !sawAligned || !sawCarry {
		t.Fatalf("trials covered aligned=%v carry=%v; both are needed", sawAligned, sawCarry)
	}
}

// TestUnitCutForAnotherCarryEndsTheStream: a cutter with no backend — the
// fleet's — passes through units cut for the rows it has in hand, and ends
// the stream cleanly, with no rows of the file emitted and no fetch tried,
// at the first unit cut for another carry: here, every file cut on a batch
// boundary whatever the rows before it.
func TestUnitCutForAnotherCarryEndsTheStream(t *testing.T) {
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
		return shard.ScanUnit(context.Background(), files[i-1], 0), true
	}, func(*Batch) error { batches++; return nil })
	if err == nil || batches != 256/48 {
		t.Fatalf("err = %v after %d batches; want the first file's %d batches, then a wrong-carry error", err, batches, 256/48)
	}
}
