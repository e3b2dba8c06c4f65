package dpp_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/reader"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// encodeScan flattens one file scan to bytes: every batch's wire form,
// then the tail rows.
func encodeScan(t *testing.T, fs *reader.FileScan) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, b := range fs.Batches {
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString("|tail|")
	if err := datagen.EncodeSamples(&buf, fs.Tail.Samples()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fileUnit is one file of a unit stream read to its closing record: its
// pieces put back together as the scan they were cut from. A unit stream is
// cut on batch boundaries, so the pieces are batches and the tail.
type fileUnit struct {
	Index int
	File  string
	Hit   bool
	Scan  *reader.FileScan
}

// unitReader puts a unit stream's pieces back together file by file, holding
// the stream to its order: files in index order, one open at a time.
type unitReader struct {
	open   *reader.FileScan
	closed int
}

// add takes the stream's next piece and returns the file it closed, if any.
func (r *unitReader) add(t testing.TB, p dpp.UnitPiece) *fileUnit {
	t.Helper()
	if p.Index != r.closed {
		t.Fatalf("piece of file %d (%s) while file %d is open", p.Index, p.File, r.closed)
	}
	if r.open == nil {
		r.open = &reader.FileScan{}
	}
	if p.Batch != nil {
		r.open.Batches = append(r.open.Batches, p.Batch)
		return nil
	}
	r.open.Tail = p.Tail
	u := &fileUnit{Index: p.Index, File: p.File, Hit: p.Hit, Scan: r.open}
	r.open, r.closed = nil, r.closed+1
	return u
}

func drainUnits(t *testing.T, u *dpp.UnitSession) []*fileUnit {
	t.Helper()
	var units []*fileUnit
	var r unitReader
	for {
		p, err := u.NextPiece(context.Background())
		if err == io.EOF {
			if r.open != nil {
				t.Fatalf("stream ended inside file %d", r.closed)
			}
			return units
		}
		if err != nil {
			t.Fatal(err)
		}
		if unit := r.add(t, p); unit != nil {
			units = append(units, unit)
		}
	}
}

// sameEntry reports whether two scans read off unit streams are one cached
// entry: the same batches and the same tail rows, not copies of them.
func sameEntry(a, b *reader.FileScan) bool {
	return a.Tail == b.Tail && slices.Equal(a.Batches, b.Batches)
}

// TestUnitSessionMatchesScanFile: a unit session's stream is ScanFile per
// file, in file-list order, at every worker count and through the
// ScanCache — same bytes, same deterministic counters as one reader
// scanning the files serially. The misaligned spec leaves a tail on every
// file, so the tails are compared too.
func TestUnitSessionMatchesScanFile(t *testing.T) {
	env := newTestEnv(t, 120)
	spec := kjtSpec() // 48-row batches over 256-row files
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reader.NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, f := range files {
		fs, err := ref.ScanFile(context.Background(), f, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fs.Tail.Rows() == 0 {
			t.Fatalf("file %s left no tail; the spec is meant to be misaligned", f)
		}
		want = append(want, encodeScan(t, fs))
	}

	svc := newService(t, env, dpp.Config{})
	for _, tc := range []struct {
		readers int
		share   bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {1, true}} {
		t.Run(fmt.Sprintf("readers=%d,share=%v", tc.readers, tc.share), func(t *testing.T) {
			u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: spec, Readers: tc.readers, ShareScans: tc.share})
			if err != nil {
				t.Fatal(err)
			}
			units := drainUnits(t, u)
			if len(units) != len(files) {
				t.Fatalf("%d units for %d files", len(units), len(files))
			}
			for i, unit := range units {
				if unit.Index != i || unit.File != files[i] || unit.Hit {
					t.Fatalf("unit %d = {Index %d, File %s, Hit %v}, want {%d, %s, false}", i, unit.Index, unit.File, unit.Hit, i, files[i])
				}
				if unit.Scan.Carry != 0 || unit.Scan.Head != nil {
					t.Fatalf("unit %d was cut at carry %d (head %v); a unit stream is cut on batch boundaries", i, unit.Scan.Carry, unit.Scan.Head)
				}
				if !bytes.Equal(encodeScan(t, unit.Scan), want[i]) {
					t.Fatalf("unit %d differs from ScanFile(%s)", i, files[i])
				}
			}
			st := u.Stats()
			if counters(st.Reader) != counters(ref.Stats()) {
				t.Fatalf("unit session counters %v, serial ScanFile counters %v", counters(st.Reader), counters(ref.Stats()))
			}
			if tc.share && (st.Cache.Misses != int64(len(files)) || st.Cache.Hits != 0) {
				t.Fatalf("cold shared unit scan cache stats %+v, want %d misses", st.Cache, len(files))
			}
			if want := max(tc.readers, 1); st.Scheduler.Workers != want {
				t.Fatalf("Workers = %d, want %d", st.Scheduler.Workers, want)
			}
		})
	}

	// A batch session with the same spec caches the same files cut at the
	// carries it enters them with. A unit session beside those entries is
	// still served the boundary cut of every file: the carry is part of
	// the key, and a unit session only ever asks for carry 0.
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: true})
	if err != nil {
		t.Fatal(err)
	}
	drainSession(t, sess)
	carried := 0
	for _, e := range svc.ScanCache().Entries() {
		if e.Carry != 0 {
			carried++
		}
	}
	if carried == 0 {
		t.Fatal("the batch session cached no file at a nonzero carry; the spec is meant to be misaligned")
	}
	u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: spec, Readers: 3, ShareScans: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, unit := range drainUnits(t, u) {
		if unit.Scan.Carry != 0 || unit.Scan.Head != nil || !unit.Hit {
			t.Fatalf("unit %d beside carried entries: carry %d, head %v, hit %v; want the cached boundary cut", i, unit.Scan.Carry, unit.Scan.Head, unit.Hit)
		}
		if !bytes.Equal(encodeScan(t, unit.Scan), want[i]) {
			t.Fatalf("unit %d beside carried entries differs from ScanFile(%s)", i, files[i])
		}
	}
}

// TestSharedUnitSessionHitsChargeEgressOnly: a ShareScans unit session
// over a warm cache serves every unit as a hit, and a hit unit charges the
// batches it ships (BatchesProduced, SentBytes) but no fill, convert or
// process work — the accounting contract of a ShareScans batch session.
func TestSharedUnitSessionHitsChargeEgressOnly(t *testing.T) {
	env := newTestEnv(t, 120)
	svc := newService(t, env, dpp.Config{})
	spec := dpp.Spec{Spec: dedupSpec(), ShareScans: true}

	cold, err := svc.OpenUnits(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	coldUnits := drainUnits(t, cold)
	coldStats := cold.Stats()

	warm, err := svc.OpenUnits(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	warmUnits := drainUnits(t, warm)
	st := warm.Stats()

	if len(warmUnits) != len(coldUnits) {
		t.Fatalf("warm scan served %d units, cold %d", len(warmUnits), len(coldUnits))
	}
	for i, unit := range warmUnits {
		if !unit.Hit {
			t.Fatalf("unit %d was not a cache hit on the warm scan", i)
		}
		if !sameEntry(unit.Scan, coldUnits[i].Scan) {
			t.Fatalf("unit %d is not the cached entry the cold scan published", i)
		}
	}
	if st.Cache.Hits != int64(len(warmUnits)) || st.Cache.Misses != 0 {
		t.Fatalf("warm cache stats %+v, want %d hits", st.Cache, len(warmUnits))
	}
	r := st.Reader
	if r.RowsDecoded != 0 || r.ReadBytes != 0 || r.ConvertValues != 0 || r.ProcessOps != 0 {
		t.Fatalf("warm scan did decode work: %+v", r)
	}
	if r.BatchesProduced != coldStats.Reader.BatchesProduced || r.SentBytes != coldStats.Reader.SentBytes ||
		r.BatchesProduced == 0 {
		t.Fatalf("warm egress {batches %d, bytes %d}, cold {%d, %d}", r.BatchesProduced, r.SentBytes,
			coldStats.Reader.BatchesProduced, coldStats.Reader.SentBytes)
	}
}

// TestSharedUnitSessionDemotesRawBytes: over a raw-byte tier, a file whose
// decoded scan is resident in the ScanCache must not also be held as raw
// bytes — one file, one tier — whichever session kind decoded it. (The
// unit path used to skip the demotion: every fleet shard behind a
// CachingBackend charged each file to both budgets.)
func TestSharedUnitSessionDemotesRawBytes(t *testing.T) {
	env := newTestEnv(t, 120)
	cached := storage.NewCachingBackend(env.store, 64<<20)
	svc, err := dpp.New(dpp.Config{Backend: cached, Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	spec := dpp.Spec{Spec: dedupSpec(), ShareScans: true}
	u, err := svc.OpenUnits(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	units := drainUnits(t, u)
	for _, unit := range units {
		if !svc.ScanCache().Contains(dpp.ScanKey{File: unit.File, Fingerprint: spec.Fingerprint()}) {
			t.Fatalf("%s is not resident in the ScanCache after a cold scan", unit.File)
		}
	}
	if cs := cached.Stats(); cs.Entries != 0 || cs.Misses != int64(len(units)) {
		t.Fatalf("raw tier after a cold shared unit scan: %+v; want %d misses and nothing left resident", cs, len(units))
	}
}

// TestUnitSessionConsumerStall: a unit session whose consumer stops
// pulling is blocked on its output buffer, and that must show as growing
// ConsumerStall — live, on the service clock — and be folded into the
// service-wide counter when the session retires. (Unit sessions used to
// report zero forever, so a credit-starved shard looked idle.)
func TestUnitSessionConsumerStall(t *testing.T) {
	for _, share := range []bool{false, true} {
		t.Run(fmt.Sprintf("share=%v", share), func(t *testing.T) {
			env := newTestEnv(t, 120)
			clock := testutil.NewClock(time.Unix(0, 0))
			svc := newService(t, env, dpp.Config{Clock: clock})
			u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: dedupSpec(), Buffer: 1, ShareScans: share})
			if err != nil {
				t.Fatal(err)
			}
			// Nobody pulls: one piece fills the buffer, the next blocks.
			testutil.Eventually(t, func() bool {
				clock.Advance(time.Second)
				return u.Stats().Scheduler.ConsumerStall > 0
			}, "the parked unit session reported consumer stall")
			first := u.Stats().Scheduler.ConsumerStall
			clock.Advance(time.Minute)
			second := u.Stats().Scheduler.ConsumerStall
			if second < first+time.Minute {
				t.Fatalf("stall went %v -> %v across a one-minute advance; a parked consumer must read as growing stall", first, second)
			}
			if got := svc.Stats().Scheduler.ConsumerStall; got < second {
				t.Fatalf("service ConsumerStall %v does not include the live unit session's %v", got, second)
			}
			u.Close()
			if got := svc.Stats().Scheduler.ConsumerStall; got < second {
				t.Fatalf("service ConsumerStall %v after retire, want >= the session's final %v", got, second)
			}
		})
	}
}

// TestUnitSessionTeardown: Close mid-stream and job-context cancellation
// both end a unit session promptly, with the matching error from NextPiece
// and zero goroutines left, whether its workers scan or consult the
// ScanCache.
func TestUnitSessionTeardown(t *testing.T) {
	env := newTestEnv(t, 200)
	for _, share := range []bool{false, true} {
		for _, how := range []string{"close", "cancel"} {
			t.Run(fmt.Sprintf("share=%v,%s", share, how), func(t *testing.T) {
				before := runtime.NumGoroutine()
				svc := newService(t, env, dpp.Config{})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				u, err := svc.OpenUnits(ctx, dpp.Spec{Spec: dedupSpec(), Readers: 3, Buffer: 1, ShareScans: share})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := u.NextPiece(context.Background()); err != nil {
					t.Fatal(err)
				}
				want := dpp.ErrClosed
				if how == "close" {
					u.Close()
				} else {
					cancel()
					want = context.Canceled
				}
				for {
					_, err := u.NextPiece(context.Background())
					if err == nil {
						continue // pieces buffered before the teardown
					}
					if !errors.Is(err, want) {
						t.Fatalf("NextPiece after %s = %v, want %v", how, err, want)
					}
					break
				}
				u.Close()
				if n := svc.Stats().ActiveSessions; n != 0 {
					t.Fatalf("ActiveSessions = %d after teardown", n)
				}
				svc.Close()
				testutil.WaitForGoroutines(t, before)
			})
		}
	}
}

// TestOpenAndOpenUnitsShareCap: batch and unit sessions are admitted
// through one path against one MaxSessions cap, which concurrent opens of
// both kinds cannot overshoot.
func TestOpenAndOpenUnitsShareCap(t *testing.T) {
	env := newTestEnv(t, 10)
	const maxSessions = 3
	svc := newService(t, env, dpp.Config{MaxSessions: maxSessions})

	const attempts = 16
	closers := make([]io.Closer, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if sess, err := svc.Open(context.Background(), dpp.Spec{Spec: dedupSpec()}); err == nil {
					closers[i] = sess
				}
			} else if u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: dedupSpec()}); err == nil {
				closers[i] = u
			}
		}(i)
	}
	wg.Wait()

	admitted := 0
	for _, c := range closers {
		if c != nil {
			admitted++
		}
	}
	if admitted == 0 || admitted > maxSessions {
		t.Fatalf("admitted %d sessions, cap %d", admitted, maxSessions)
	}
	if n := svc.Stats().ActiveSessions; n != admitted {
		t.Fatalf("ActiveSessions = %d want %d", n, admitted)
	}
	// The cap is full: neither kind gets in until a slot frees.
	if admitted == maxSessions {
		if _, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: dedupSpec()}); err == nil {
			t.Fatal("OpenUnits admitted past a full cap")
		}
	}
	for _, c := range closers {
		if c != nil {
			c.Close()
		}
	}
	if n := svc.Stats().ActiveSessions; n != 0 {
		t.Fatalf("ActiveSessions = %d after closing everything", n)
	}
}
