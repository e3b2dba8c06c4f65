package dpp

import (
	"context"

	"repro/internal/reader"
)

// sharedSource is the one walk over the ScanCache: it yields a ShareScans
// scan's units in file order. A file entered on a batch boundary is looked
// up in the cache (single-flight; computed by ScanFile on a miss) and
// yielded already cut, shared with every session of the same fingerprint.
// A file entered with carried rows cannot share batches — their boundaries
// depend on the carry — so it is filled and yielded as a chunk for the
// cutter. The source never sees the cutter's carried rows and does not
// need them: it tracks their count arithmetically, (carry + rows) mod
// batch, which by construction matches the cutter's at every file. So
// lookups happen only at carry-free boundaries, in file order, one per
// file, however far ahead of the cutter the source runs.
type sharedSource struct {
	svc         *Service
	r           *reader.Reader // fills, and scans on a miss
	fingerprint string
	files       []string
	// batch is the spec's batch size, or 0 for a unit session, which
	// serves every file as if entered on a boundary.
	batch    int
	i, carry int

	// served is the egress of the cache-hit units (their batches are
	// shipped, not produced); cache counts the lookups. Both are charged
	// when the lookup happens. Read them once the source has stopped.
	served reader.Stats
	cache  SessionCacheStats
}

// sharedUnit is one yielded unit plus whether the cache served it.
type sharedUnit struct {
	reader.Unit
	hit bool
}

func newSharedSource(svc *Service, spec Spec, files []string, batch int) (*sharedSource, error) {
	r, err := reader.NewReader(svc.backend, spec.Spec)
	if err != nil {
		return nil, err
	}
	return &sharedSource{svc: svc, r: r, fingerprint: spec.Spec.Fingerprint(), files: files, batch: batch}, nil
}

// next yields the next file's unit; ok is false after the last file.
func (src *sharedSource) next(ctx context.Context) (u sharedUnit, ok bool) {
	if src.i >= len(src.files) {
		return sharedUnit{}, false
	}
	f := src.files[src.i]
	src.i++
	if src.carry > 0 {
		u.Unit = src.r.FillUnit(ctx, f)
		if u.Err == nil {
			src.carry = (src.carry + u.Chunk.Rows()) % src.batch
		}
		return u, true
	}
	scan, hit, err := src.svc.cache.Get(ctx, f, src.fingerprint, func(ctx context.Context) (*reader.FileScan, error) {
		return src.r.ScanFile(ctx, f)
	})
	u.Unit = reader.Unit{File: f, Scan: scan, Err: err}
	if err != nil {
		return u, true
	}
	if u.hit = hit; hit {
		src.cache.Hits++
		for _, b := range scan.Batches {
			src.served.BatchesProduced++
			src.served.SentBytes += int64(b.WireBytes())
		}
	} else {
		src.cache.Misses++
		src.svc.demoteRaw(f, src.fingerprint)
	}
	if src.batch > 0 {
		src.carry = scan.Tail.Rows()
	}
	return u, true
}

// ahead returns the source as a pull function running depth units ahead of
// its caller, and the stop that must be called before reading the
// source's counters. Depth 0 is next itself, called inline; a positive
// depth is the same next behind a depth-deep channel on its own goroutine,
// which stop cancels and joins. The source stops after yielding an error.
func (src *sharedSource) ahead(ctx context.Context, depth int) (next func() (sharedUnit, bool), stop func()) {
	if depth <= 0 {
		return func() (sharedUnit, bool) { return src.next(ctx) }, func() {}
	}
	pctx, cancel := context.WithCancel(ctx)
	units := make(chan sharedUnit, depth) // the read-ahead depth
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer close(units)
		for {
			u, ok := src.next(pctx)
			if !ok {
				return
			}
			select {
			case units <- u:
			case <-pctx.Done():
				return
			}
			if u.Err != nil {
				return
			}
		}
	}()
	return func() (sharedUnit, bool) {
			u, ok := <-units
			return u, ok
		}, func() {
			cancel()
			<-done
		}
}
