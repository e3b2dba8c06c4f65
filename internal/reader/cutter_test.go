package reader

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
)

// unitRows is how many rows a unit hands the cutter.
func unitRows(u Unit, batch int) int {
	if u.Chunk != nil {
		return u.Chunk.Rows()
	}
	return len(u.Scan.Batches)*batch + u.Scan.Tail.Rows()
}

// cutUnits drives RunUnits over next and returns the emitted batches. It
// also checks the cutter's memory bound from outside: whenever the cutter
// asks for the next unit, the rows it has been handed and not yet emitted —
// its pending rows — are fewer than one batch. Safe off the test goroutine.
func cutUnits(t *testing.T, what string, cutter *Reader, next func() (Unit, bool)) ([]*Batch, error) {
	batch := cutter.spec.BatchSize
	supplied, emitted := 0, 0
	var out []*Batch
	err := cutter.RunUnits(context.Background(), func() (Unit, bool) {
		if supplied-emitted >= batch {
			t.Errorf("%s: the cutter holds %d rows, a full batch is %d", what, supplied-emitted, batch)
		}
		u, ok := next()
		if ok && u.Err == nil {
			supplied += unitRows(u, batch)
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

// scanSource is the shape of a shared-scan source: files entered on a
// batch boundary come from a cache of ScanFile results (computed on a
// miss), files entered with carried rows are filled, and the carry is
// tracked arithmetically, never read from the cutter. boundaryOnly makes
// it the fleet's shape instead: every file arrives as a scan, and the
// cutter must re-fill the ones it enters mid-batch.
type scanSource struct {
	r            *Reader
	files        []string
	cache        map[string]*FileScan
	boundaryOnly bool
	i, carry     int
}

func (s *scanSource) next() (Unit, bool) {
	if s.i >= len(s.files) {
		return Unit{}, false
	}
	f := s.files[s.i]
	s.i++
	if s.carry > 0 && !s.boundaryOnly {
		u := s.r.FillUnit(context.Background(), f)
		if u.Err == nil {
			s.carry = (s.carry + u.Chunk.Rows()) % s.r.spec.BatchSize
		}
		return u, true
	}
	fs := s.cache[f]
	if fs == nil {
		var err error
		if fs, err = s.r.ScanFile(context.Background(), f); err != nil {
			return Unit{File: f, Err: err}, true
		}
		s.cache[f] = fs
	}
	if !s.boundaryOnly {
		s.carry = fs.Tail.Rows()
	}
	return Unit{File: f, Scan: fs}, true
}

// ahead runs next on its own goroutine, depth units ahead of the caller.
func ahead(depth int, next func() (Unit, bool)) func() (Unit, bool) {
	if depth == 0 {
		return next
	}
	units := make(chan Unit, depth)
	go func() {
		defer close(units)
		for {
			u, ok := next()
			if !ok {
				return
			}
			units <- u
		}
	}()
	return func() (Unit, bool) {
		u, ok := <-units
		return u, ok
	}
}

func encodeTails(t *testing.T, cache map[string]*FileScan, files []string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range files {
		var buf bytes.Buffer
		if err := datagen.EncodeSamples(&buf, cache[f].Tail.Samples()); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestEverySourceThroughTheCutterMatchesSerialRun is the one cutter's
// contract. Over random tables, rows per file, batch sizes (dividing the
// file or not) and specs, RunUnits is fed from every kind of source the
// repo has — serial fill, a ScanQueue with 1–4 fill workers, cached scan
// units with arithmetic alignment at read-ahead 0, 1 and 4, and scan-only
// units the cutter re-fills itself (the fleet's shape) — and must emit the
// serial Run's stream byte for byte, with its deterministic counters
// wherever the source does no more work than a serial scan, while never
// holding a full batch of pending rows and never writing to a cached
// scan's tail (two warm consumers share each entry; run under -race).
func TestEverySourceThroughTheCutterMatchesSerialRun(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	var sawAligned, sawCarry bool
	for trial := 0; trial < 24; trial++ {
		env := randomProjectionEnv(t, rng)
		sawAligned, sawCarry = sawAligned || env.aligned, sawCarry || !env.aligned
		what := fmt.Sprintf("trial %d (batch %d, aligned %v)", trial, env.spec.BatchSize, env.aligned)
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

		// A ScanQueue with 1–4 fill workers.
		for workers := 1; workers <= 4; workers++ {
			name := fmt.Sprintf("%s, queue of %d", what, workers)
			q := NewScanQueue(env.files, workers+1, nil)
			fillers := make([]*Reader, workers)
			var wg sync.WaitGroup
			for w := range fillers {
				fillers[w] = newReader()
				wg.Add(1)
				go func(r *Reader) {
					defer wg.Done()
					r.FillQueue(context.Background(), q, nil)
				}(fillers[w])
			}
			cutter, i := newReader(), 0
			got := cutAll(t, name, cutter, func() (Unit, bool) {
				res, ok := q.Await(i)
				if !ok {
					return Unit{}, false
				}
				i++
				return Unit{File: env.files[i-1], Chunk: res.Chunk, Err: res.Err}, true
			})
			q.Abort()
			wg.Wait()
			mustEqualEncodings(t, name, got, want)
			total := cutter.Stats()
			for _, r := range fillers {
				total.Add(r.Stats())
			}
			if c := counters(total); c != wantCounters {
				t.Fatalf("%s: counters %v, serial Run %v", name, c, wantCounters)
			}
		}

		// Cached scan units, cold: the source scans on every miss, and
		// source plus cutter do exactly a serial scan's work at any depth.
		var cache map[string]*FileScan
		for _, depth := range []int{0, 1, 4} {
			name := fmt.Sprintf("%s, cold cache at read-ahead %d", what, depth)
			cache = make(map[string]*FileScan)
			src := &scanSource{r: newReader(), files: env.files, cache: cache}
			cutter := newReader()
			got := cutAll(t, name, cutter, ahead(depth, src.next))
			mustEqualEncodings(t, name, got, want)
			total := cutter.Stats()
			total.Add(src.r.Stats())
			if c := counters(total); c != wantCounters {
				t.Fatalf("%s: counters %v, serial Run %v", name, c, wantCounters)
			}
		}

		// Warm: fill every entry (a misaligned cold pass skips the files it
		// entered mid-batch), then two consumers share each entry at once.
		filler := &scanSource{r: newReader(), files: env.files, cache: cache, boundaryOnly: true}
		for _, ok := filler.next(); ok; _, ok = filler.next() {
		}
		tails := encodeTails(t, cache, env.files)
		var wg sync.WaitGroup
		warm := make([][]*Batch, 2)
		warmErr := make([]error, 2)
		for c, depth := range []int{0, 4} {
			wg.Add(1)
			go func(c, depth int) {
				defer wg.Done()
				src := &scanSource{r: newReader(), files: env.files, cache: cache}
				warm[c], warmErr[c] = cutUnits(t, fmt.Sprintf("%s, warm consumer %d", what, c), newReader(), ahead(depth, src.next))
			}(c, depth)
		}
		wg.Wait()
		for c := range warm {
			name := fmt.Sprintf("%s, warm consumer %d", what, c)
			if warmErr[c] != nil {
				t.Fatalf("%s: %v", name, warmErr[c])
			}
			mustEqualEncodings(t, name, encodeBatches(t, warm[c]), want)
		}
		for i, tail := range encodeTails(t, cache, env.files) {
			if !bytes.Equal(tail, tails[i]) {
				t.Fatalf("%s: a consumer changed the cached tail of %s", what, env.files[i])
			}
		}

		// The fleet's shape: scans only, and the cutter re-fills what it
		// enters mid-batch. The shards scanned every file, so the counters
		// match a serial scan only when nothing is re-filled.
		shard := &scanSource{r: newReader(), files: env.files, cache: map[string]*FileScan{}, boundaryOnly: true}
		cutter = newReader()
		got = cutAll(t, what+", scan-only units", cutter, shard.next)
		mustEqualEncodings(t, what+", scan-only units", got, want)
		total := cutter.Stats()
		total.Add(shard.r.Stats())
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
	src := &scanSource{r: shard, files: files, cache: map[string]*FileScan{}, boundaryOnly: true}
	batches := 0
	err = cutter.RunUnits(context.Background(), src.next, func(*Batch) error { batches++; return nil })
	if err == nil || batches != 256/48 {
		t.Fatalf("err = %v after %d batches; want the first file's %d batches, then a no-backend error", err, batches, 256/48)
	}
}
