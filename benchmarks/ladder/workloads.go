package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/dppshard"
)

// workloadDef names one workload. Later issues refer to these names.
type workloadDef struct {
	Name string
	Why  string
	kind specKind
	// live marks the open-loop workload, which has its own driver.
	live bool
	// start stands the serving side up.
	start func(fx *fixture, traced bool) (*rig, error)
}

var workloads = []workloadDef{
	{Name: "cold_scan", kind: fullSpec, start: startCold,
		Why: "local session, all 25 features, no cache: fill (store get, fetch model, dwrf decode) is ~90% of the work"},
	{Name: "cold_projected", kind: narrowSpec, start: startCold,
		Why: "same cold path reading 5 of 25 features: decode is a larger share, projection pushdown shows here only"},
	{Name: "remote_warm", kind: fullSpec, start: startRemoteWarm,
		Why: "2 dppnet sessions over a warm ScanCache: fill does nothing, batch encode, framing, credits, TCP, decode do it all"},
	{Name: "fleet_overcommit", kind: fullSpec, start: startFleet,
		Why: "2 shards whose caches hold 2/3 of the table, cyclic passes: unit streams, merge, routing, eviction churn"},
	{Name: "live_tail", kind: fullSpec, live: true, start: startCold,
		Why: "open loop: land 256 rows every 125 ms beside one Follow session; dwrf encode, join, publish, tailer show"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// openFn opens one stream the way the workload's consumers do. The
// returned stats function is valid once the stream has reached io.EOF.
type openFn func(ctx context.Context) (dpp.Stream, func() dpp.SessionStats, error)

// rig is a workload's serving side plus what the harness needs to read
// its counters at the window boundaries.
type rig struct {
	consumers int
	open      openFn
	// layer prefixes the Open/Next/Close span names: dpp, dppnet, dppshard.
	layer    string
	services []*dpp.Service
	servers  []*dppnet.Server
	// wire counts bytes written on the harness-owned listeners' conns;
	// nil in the untraced run, which serves on plain listeners.
	wire *atomic.Int64
	// fleet accounting, folded in by the fleet's stats function.
	mu        sync.Mutex
	reroutes  int64
	shardSkew float64
}

// startCold is cold_scan and cold_projected: a bare store, a default
// service, one unshared two-reader session per pass. live_tail uses the
// same bare service and opens its own Follow session on it.
func startCold(fx *fixture, traced bool) (*rig, error) {
	svc, err := dpp.New(dpp.Config{Backend: fx.store, Catalog: fx.catalog})
	if err != nil {
		return nil, err
	}
	spec := dpp.Spec{Spec: fx.spec, Readers: 2, Buffer: 2}
	return &rig{consumers: 1, layer: "dpp", services: []*dpp.Service{svc}, open: localOpen(svc, spec)}, nil
}

// dppSpecShared is the spec of the workloads that read through the
// ScanCache.
func dppSpecShared(fx *fixture) dpp.Spec { return dpp.Spec{Spec: fx.spec, ShareScans: true} }

func localOpen(svc *dpp.Service, spec dpp.Spec) openFn {
	return func(ctx context.Context) (dpp.Stream, func() dpp.SessionStats, error) {
		s, err := svc.Open(ctx, spec)
		if err != nil {
			return nil, nil, err
		}
		return s, s.Stats, nil
	}
}

// countingListener wraps accepted conns so the traced run can report
// wire bytes per row from the transport itself, not from a counter the
// server keeps about its own payloads.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// serve starts one in-process dppnet server for svc on addr.
func (r *rig) serve(svc *dpp.Service, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if r.wire != nil {
		ln = countingListener{ln, r.wire}
	}
	srv := dppnet.NewServer(svc)
	r.services = append(r.services, svc)
	r.servers = append(r.servers, srv)
	go srv.Serve(ln) // returns nil on Close; a listener failure surfaces as failed opens
	return ln.Addr().String(), nil
}

// stop closes the servers, then the services behind them.
func (r *rig) stop() {
	for _, s := range r.servers {
		s.Close()
	}
	for _, s := range r.services {
		s.Close()
	}
}

// startRemoteWarm: one server, default (256 MiB) ScanCache — far larger
// than the ~20 MB decoded table — and two remote sessions per pass.
func startRemoteWarm(fx *fixture, traced bool) (*rig, error) {
	r := &rig{consumers: 2, layer: "dppnet"}
	if traced {
		r.wire = new(atomic.Int64)
	}
	svc, err := dpp.New(dpp.Config{Backend: fx.store, Catalog: fx.catalog})
	if err != nil {
		return nil, err
	}
	addr, err := r.serve(svc, "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	client := dppnet.NewClient(addr)
	spec := dppSpecShared(fx)
	r.open = func(ctx context.Context) (dpp.Stream, func() dpp.SessionStats, error) {
		s, err := client.Open(ctx, spec)
		if err != nil {
			return nil, nil, err
		}
		return s, func() dpp.SessionStats { st, _ := s.Stats(); return st }, nil
	}
	return r, nil
}

// fleetAddrs are fixed, below the ephemeral port range: rendezvous
// routing hashes the shard address, so with kernel-chosen ports the
// file split — and with it every cache counter — would differ run to
// run. These two route the 17 files 9/8.
var fleetAddrs = []string{"127.0.0.1:17911", "127.0.0.1:17912"}

// startFleet: two shards, each with a ScanCache of one third of the
// decoded table, so the fleet holds ~2/3 of a working set it scans
// cyclically.
func startFleet(fx *fixture, traced bool) (*rig, error) {
	r := &rig{consumers: 1, layer: "dppshard"}
	if traced {
		r.wire = new(atomic.Int64)
	}
	budget := fx.ref.DecodedBytes / 3
	var addrs []string
	for _, want := range fleetAddrs {
		svc, err := dpp.New(dpp.Config{Backend: fx.store, Catalog: fx.catalog, ScanCacheBytes: budget})
		if err != nil {
			r.stop()
			return nil, err
		}
		addr, err := r.serve(svc, want)
		if err != nil {
			// Someone else holds the port: keep the run alive on a
			// kernel-chosen one and say that routing is not pinned.
			fmt.Fprintf(os.Stderr, "ladder: %v; falling back to an ephemeral port, shard routing not pinned\n", err)
			addr, err = r.serve(svc, "127.0.0.1:0")
		}
		if err != nil {
			svc.Close()
			r.stop()
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	fleet, err := dppshard.New(dppshard.Config{Addrs: addrs, Backend: fx.store})
	if err != nil {
		r.stop()
		return nil, err
	}
	spec := dppSpecShared(fx)
	spec.Files = fx.files
	r.open = func(ctx context.Context) (dpp.Stream, func() dpp.SessionStats, error) {
		s, err := fleet.Open(ctx, spec)
		if err != nil {
			return nil, nil, err
		}
		return s, func() dpp.SessionStats {
			shards, reroutes := s.ShardStats()
			maxFiles := 0
			for _, sh := range shards {
				if sh.Files > maxFiles {
					maxFiles = sh.Files
				}
			}
			r.mu.Lock()
			r.reroutes += reroutes
			r.shardSkew = float64(maxFiles) * float64(len(addrs)) / float64(len(fx.files))
			r.mu.Unlock()
			return s.Stats()
		}, nil
	}
	return r, nil
}

// slice is a twentieth of the window or more, cut at a pass boundary (on
// live_tail, at a delivery). The rate metrics are medians over a
// window's slices, so one burst of interference from the machine moves
// one slice, not the result.
type slice struct {
	Rows      int64
	Wall, CPU time.Duration
}

// slicer cuts a window into slices as the consumer makes progress.
type slicer struct {
	min time.Duration
	// start0/cpu0 are the window's start, start/cpu/rows the open slice's.
	start0, start time.Time
	cpu0, cpu     time.Duration
	rows          int64
	slices        []slice
}

func newSlicer(window time.Duration) *slicer {
	now, cpu := time.Now(), cpuTime()
	return &slicer{min: window / 20, start: now, cpu: cpu, start0: now, cpu0: cpu}
}

// progress records that the window has delivered rows in total so far
// and cuts a slice if the current one is long enough.
func (s *slicer) progress(rows int64) {
	now := time.Now()
	if now.Sub(s.start) < s.min {
		return
	}
	cpu := cpuTime()
	s.slices = append(s.slices, slice{Rows: rows - s.rows, Wall: now.Sub(s.start), CPU: cpu - s.cpu})
	s.start, s.cpu, s.rows = now, cpu, rows
}

// finish stores the slices and the window totals in m. A window too
// short to have cut a slice is one slice.
func (s *slicer) finish(m *meas, rows int64) {
	m.Wall, m.CPU = time.Since(s.start0), cpuTime()-s.cpu0
	if len(s.slices) == 0 {
		s.slices = []slice{{Rows: rows, Wall: m.Wall, CPU: m.CPU}}
	}
	m.Slices = s.slices
}

// meas accumulates what the consumers of one measured window saw.
type meas struct {
	mu          sync.Mutex
	Rows        int64
	Ops, Failed int64
	EgressBytes int64
	RowsDecoded int64
	Passes      int
	First, Gaps []time.Duration
	Lags, Late  []time.Duration // live_tail only
	Wall, CPU   time.Duration
	Slices      []slice
	PeakRSS     int64
	// StoredBytes/StoredRows is the store footprint of the rows scanned
	// (landed, on live_tail); EgressRows is what EgressBytes is over.
	StoredBytes, StoredRows int64
	EgressRows              int64
	FilesLanded             int64
	FollowLag               int
	firstErr                error
	// mismatch is set when a hashed stream's digest differed from the
	// oracle's; the command exits nonzero on it.
	mismatch bool
}

func (m *meas) fail(n int, err error) {
	m.mu.Lock()
	m.Failed += int64(n)
	if m.firstErr == nil && err != nil {
		m.firstErr = err
	}
	m.mu.Unlock()
}

// drainStream is one consumer's share of one pass: open, pull to EOF,
// close. An op is one Next that should yield a batch; an error fails it
// and every batch the stream still owed. With hasher set the stream is
// the verified pass: a digest mismatch fails every op of the stream.
func drainStream(ctx context.Context, r *rig, want oracle, hasher hash.Hash, m *meas, tk *track) {
	var (
		first             time.Duration
		gaps              = make([]time.Duration, 0, want.Batches)
		rows, ops, failed int64
		st                dpp.SessionStats
		n                 int
	)
	start := time.Now()
	id := tk.begin(r.layer + ".open")
	s, stats, err := r.open(ctx)
	tk.end(id)
	if err != nil {
		m.fail(0, fmt.Errorf("open: %w", err))
	} else {
		last := start
		for {
			id := tk.begin(r.layer + ".next")
			b, err := s.Next(ctx)
			tk.end(id)
			now := time.Now()
			if err == io.EOF {
				st = stats()
				break
			}
			if err != nil {
				m.fail(0, fmt.Errorf("next %d: %w", n, err))
				break
			}
			ops++
			wantSize := batchSize
			if n == want.Batches-1 {
				wantSize = want.lastBatchRows()
			}
			if n >= want.Batches || b.Size != wantSize || len(b.Labels) != b.Size {
				failed++
			}
			if n == 0 {
				first = now.Sub(start)
			}
			gaps = append(gaps, now.Sub(last))
			last = now
			rows += int64(b.Size)
			if hasher != nil {
				if err := b.Encode(hasher); err != nil {
					m.fail(0, err)
				}
			}
			n++
		}
		id = tk.begin(r.layer + ".close")
		s.Close()
		tk.end(id)
	}
	if n < want.Batches { // the stream still owed these
		ops += int64(want.Batches - n)
		failed += int64(want.Batches - n)
	}
	mismatch := false
	if hasher != nil {
		var got [sha256.Size]byte
		hasher.Sum(got[:0])
		if mismatch = got != want.Digest || rows != int64(want.Rows); mismatch {
			failed = ops
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.Rows += rows
	m.Ops += ops
	m.Failed += failed
	m.mismatch = m.mismatch || mismatch
	m.EgressBytes += st.Reader.SentBytes
	m.RowsDecoded += st.Reader.RowsDecoded
	if n > 0 {
		m.First = append(m.First, first)
	}
	m.Gaps = append(m.Gaps, gaps...)
}

// onePass runs every consumer of the rig through one whole pass.
func onePass(ctx context.Context, r *rig, want oracle, verify bool, m *meas, tr *Trace, pass int) {
	var wg sync.WaitGroup
	for c := 0; c < r.consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var h hash.Hash
			if verify {
				h = sha256.New()
			}
			tk := tr.newTrack(pass)
			id := tk.begin("pass")
			drainStream(ctx, r, want, h, m, tk)
			tk.end(id)
		}()
	}
	wg.Wait()
	m.Passes++
}

// runClosedLoop measures one window: whole passes until window has
// elapsed, the pass in flight finished, so per-pass counts repeat
// exactly. The caller has already run the verified pass, which is also
// the cache warm-up.
func runClosedLoop(ctx context.Context, r *rig, fx *fixture, window time.Duration, tr *Trace) *meas {
	m := &meas{}
	rss := startRSSSampler(50 * time.Millisecond)
	sl := newSlicer(window)
	for pass := 1; time.Since(sl.start0) < window; pass++ {
		onePass(ctx, r, fx.ref, false, m, tr, pass)
		sl.progress(m.Rows)
	}
	sl.finish(m, m.Rows)
	m.PeakRSS = rss.Stop()
	m.StoredBytes, m.StoredRows, m.EgressRows = fx.storedBytes, int64(fx.ref.Rows), m.Rows
	return m
}

// drainLocal pulls a stream to EOF and returns the rows it delivered
// and the time spent inside Next: the baseline dppnet.hop_ns_per_row
// subtracts.
func drainLocal(ctx context.Context, s dpp.Stream) (rows int64, inNext time.Duration, err error) {
	defer s.Close()
	for {
		t := time.Now()
		b, err := s.Next(ctx)
		inNext += time.Since(t)
		if err == io.EOF {
			return rows, inNext, nil
		}
		if err != nil {
			return rows, inNext, err
		}
		rows += int64(b.Size)
	}
}
