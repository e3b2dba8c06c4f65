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

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/front"
	"repro/internal/dwrf"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// scanParts is one file's scan as the pieces it was cut into: the head rows,
// when the scan carried rows into the file, the batches, the tail rows.
type scanParts struct {
	Carry   int
	Head    *dwrf.Chunk
	Batches []*reader.Batch
	Tail    *dwrf.Chunk
}

// add files the scan's next piece: the first rows of a scan that carried
// rows in are its head, any others its tail.
func (fs *scanParts) add(p reader.Piece) {
	switch {
	case p.Batch != nil:
		fs.Batches = append(fs.Batches, p.Batch)
	case fs.Carry > 0 && fs.Head == nil:
		fs.Head = p.Rows
	default:
		fs.Tail = p.Rows
	}
}

// partsOf is a finished log's pieces, put back together.
func partsOf(fs *reader.FileScan) *scanParts {
	parts := &scanParts{Carry: fs.Carry}
	for _, p := range fs.Pieces() {
		parts.add(p)
	}
	return parts
}

// encodeScan flattens one file scan to bytes: the head rows, if any, every
// batch's wire form, then the tail rows.
func encodeScan(t *testing.T, fs *scanParts) []byte {
	t.Helper()
	var buf bytes.Buffer
	if fs.Head != nil {
		for _, s := range fs.Head.Samples() {
			buf.Write(s.AppendTo(nil))
		}
		buf.WriteString("|head|")
	}
	for _, b := range fs.Batches {
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString("|tail|")
	for _, s := range fs.Tail.Samples() {
		buf.Write(s.AppendTo(nil))
	}
	return buf.Bytes()
}

// fileUnit is one file of a unit stream read to its closing record: its
// pieces — the head, when the plan carries rows into the file, the batches
// and the tail — put back together as the scan they were cut from.
type fileUnit struct {
	Index int
	File  string
	Hit   bool
	Scan  *scanParts
}

// unitReader puts a unit stream's pieces back together file by file, holding
// the stream to its order: files in index order, one open at a time.
type unitReader struct {
	open   *scanParts
	closed int
}

// add takes the stream's next piece and returns the file it closed, if any.
func (r *unitReader) add(t testing.TB, p dpp.UnitPiece) *fileUnit {
	t.Helper()
	if p.Index != r.closed {
		t.Fatalf("piece of file %d (%s) while file %d is open", p.Index, p.File, r.closed)
	}
	if r.open == nil {
		r.open = &scanParts{}
	}
	if p.Head != nil {
		r.open.Head, r.open.Carry = p.Head, p.Carry
		return nil
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
func sameEntry(a, b *scanParts) bool {
	return a.Tail == b.Tail && slices.Equal(a.Batches, b.Batches)
}

// TestUnitSessionMatchesScanFile: a unit session's stream is ScanFile per
// file, each at the carry the plan gives it, in file-list order, at every
// worker count and through the ScanCache — same bytes, same deterministic
// counters as one reader scanning the files serially. The misaligned spec
// carries rows into most files, so heads and tails are compared too.
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
	var carries []int
	carry := 0
	for _, f := range files {
		fs, err := ref.ScanFile(context.Background(), f, carry)
		if err != nil {
			t.Fatal(err)
		}
		want, carries = append(want, encodeScan(t, partsOf(fs))), append(carries, carry)
		e, _ := env.catalog.Lookup(f)
		carry = (carry + e.Rows) % spec.BatchSize
	}
	if slices.Max(carries) == 0 {
		t.Fatal("the plan carries rows into no file; the spec is meant to be misaligned")
	}

	svc := newService(t, env, dpp.Config{})
	for _, tc := range []struct {
		readers int
		share   bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {1, true}} {
		t.Run(fmt.Sprintf("readers=%d,share=%v", tc.readers, tc.share), func(t *testing.T) {
			u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: spec, Readers: tc.readers, ShareScans: tc.share}, nil)
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
				if unit.Scan.Carry != carries[i] || (unit.Scan.Head != nil) != (carries[i] > 0) {
					t.Fatalf("unit %d was cut at carry %d (head %v); the plan carries %d rows into it", i, unit.Scan.Carry, unit.Scan.Head, carries[i])
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

	// A batch session with the same spec reaches every file with the carry
	// the unit session cut it at, so it is served the unit session's cached
	// scans — and a unit session after it the same ones: one plan, one cut
	// of each file, whichever kind of session asks.
	sess, err := svc.Open(context.Background(), dpp.Spec{Spec: spec, ShareScans: true})
	if err != nil {
		t.Fatal(err)
	}
	drainSession(t, sess)
	if st := sess.Stats().Cache; st.Hits != int64(len(files)) || st.Misses != 0 {
		t.Fatalf("the batch session beside the unit session's entries: %+v, want %d hits", st, len(files))
	}
	u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: spec, Readers: 3, ShareScans: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, unit := range drainUnits(t, u) {
		if unit.Scan.Carry != carries[i] || !unit.Hit {
			t.Fatalf("unit %d beside the batch session: carry %d, hit %v; want the cached cut at carry %d", i, unit.Scan.Carry, unit.Hit, carries[i])
		}
		if !bytes.Equal(encodeScan(t, unit.Scan), want[i]) {
			t.Fatalf("unit %d beside the batch session differs from ScanFile(%s)", i, files[i])
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

	cold, err := svc.OpenUnits(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldUnits := drainUnits(t, cold)
	coldStats := cold.Stats()

	warm, err := svc.OpenUnits(context.Background(), spec, nil)
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
			u, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: dedupSpec(), Buffer: 1, ShareScans: share}, nil)
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
				u, err := svc.OpenUnits(ctx, dpp.Spec{Spec: dedupSpec(), Readers: 3, Buffer: 1, ShareScans: share}, nil)
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
// against one cap, the tenant's at the server's gate, which concurrent
// opens of both kinds cannot overshoot; with the cap full, neither kind
// gets in. The table is several credit windows long: a remote batch
// session's cutter takes pieces before its consumer asks, and a stream
// whose every piece it holds has ended on the server.
func TestOpenAndOpenUnitsShareCap(t *testing.T) {
	env := newTestEnv(t, 60)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	spec := dpp.Spec{Spec: dedupSpec(), Files: files}
	serves := make([]int, len(files))
	for i := range serves {
		serves[i] = i
	}
	const maxSessions = 3
	gate := sessionCap(maxSessions)
	addr, stop := serveOn(t, newService(t, env, dpp.Config{}), gate)
	defer stop()
	client := dppnet.NewClient(addr)

	const attempts = 16
	closers := make([]io.Closer, attempts)
	var wg sync.WaitGroup
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				if sess, err := client.Open(context.Background(), spec); err == nil {
					closers[i] = sess
				}
			} else if u, err := client.OpenUnits(context.Background(), spec, serves); err == nil {
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
	if st := gate.TenantStats(front.DefaultTenant); st.Active != admitted {
		t.Fatalf("gate holds %d sessions, want the %d admitted", st.Active, admitted)
	}
	if admitted == maxSessions {
		if _, err := client.OpenUnits(context.Background(), spec, serves); !errors.Is(err, dppnet.ErrRemote) {
			t.Fatalf("OpenUnits past a full cap = %v, want a remote error", err)
		}
	}
	for _, c := range closers {
		if c != nil {
			c.Close()
		}
	}
}
