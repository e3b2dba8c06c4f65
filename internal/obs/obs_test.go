package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/dpp/front"
	"repro/internal/dpp/landing"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// newTestService lands one small synthetic partition and opens a service
// over it — the same landing shape the dpp and dppnet suites use.
func newTestService(t testing.TB, cfg dpp.Config) *dpp.Service {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 1, UserElem: 1, Item: 1, Dense: 2, SeqLen: 12, Seed: 7,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 20, MeanSamplesPerSession: 6, Seed: 41,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 64, Writer: dwrf.WriterOptions{StripeRows: 32}}); err != nil {
		t.Fatal(err)
	}
	cfg.Backend = store
	cfg.Catalog = catalog
	svc, err := dpp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func testSpec() dpp.Spec {
	return dpp.Spec{Spec: reader.Spec{
		Table:          "tbl",
		BatchSize:      32,
		SparseFeatures: []string{"item_0"},
	}}
}

// buildFullRegistry wires every Register* helper the way a serving
// process does, over real (idle) components — including a two-tenant
// front door, so the golden pins the per-tenant series shape.
func buildFullRegistry(t testing.TB) (*Registry, *AccessLog) {
	t.Helper()
	svc := newTestService(t, dpp.Config{})
	netSrv := dppnet.NewServer(svc)
	t.Cleanup(func() { netSrv.Close() })
	alog := NewAccessLog(16)
	limits := map[string]front.Limits{
		"team-a": {Weight: 1, MaxSessions: 4},
		"team-b": {Weight: 2},
	}
	gate := front.NewGate(front.Config{
		Auth:   front.StaticTokens{"tok-a": "team-a", "tok-b": "team-b"},
		Limits: limits,
	})
	gov := front.NewGovernor(front.GovernorConfig{Budget: 8, Weights: map[string]int{"team-a": 1, "team-b": 2}})
	reg := NewRegistry()
	RegisterProcess(reg)
	RegisterService(reg, Labels{"shard": "0"}, svc)
	RegisterNetServer(reg, Labels{"shard": "0"}, netSrv)
	RegisterGate(reg, nil, gate)
	RegisterGovernor(reg, nil, gov, []string{"team-a", "team-b"})
	RegisterLanding(reg, Labels{"shard": "0"}, func() landing.WriterStats { return landing.WriterStats{} })
	RegisterAccessLog(reg, alog)
	return reg, alog
}

// normalizeValues replaces every sample value with "X" so the golden
// pins series names, HELP, TYPE, label sets, and ordering — the
// operational contract — without pinning live values.
func normalizeValues(text string) string {
	lines := strings.Split(text, "\n")
	for i, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		sp := strings.LastIndexByte(ln, ' ')
		lines[i] = ln[:sp] + " X"
	}
	return strings.Join(lines, "\n")
}

// TestMetricsGoldenFormat pins the Prometheus exposition shape for a
// fully wired single-shard process against testdata/metrics.golden.
// Renaming or dropping a series is a breaking change to dashboards and
// the soak gate — update the golden deliberately by re-running with
// UPDATE_METRICS_GOLDEN=1 and reviewing the diff.
func TestMetricsGoldenFormat(t *testing.T) {
	reg, _ := buildFullRegistry(t)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := normalizeValues(b.String())
	if os.Getenv("UPDATE_METRICS_GOLDEN") != "" {
		if err := os.WriteFile("testdata/metrics.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("metrics format drifted from testdata/metrics.golden.\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestRegistryRejectsBadWiring pins the panic contract for wiring bugs.
func TestRegistryRejectsBadWiring(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("ok_total", "h", nil, func() float64 { return 0 })
	mustPanic("bad name", func() { reg.Counter("0bad", "h", nil, func() float64 { return 0 }) })
	mustPanic("kind clash", func() { reg.Gauge("ok_total", "h", nil, func() float64 { return 0 }) })
	mustPanic("duplicate sample", func() { reg.Counter("ok_total", "h", nil, func() float64 { return 0 }) })
	mustPanic("bad label", func() { reg.Counter("l_total", "h", Labels{"0k": "v"}, func() float64 { return 0 }) })
}

// TestRegistryLabelRendering pins sorted keys and value escaping.
func TestRegistryLabelRendering(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("g", "h", Labels{"b": `qu"ote`, "a": "x\ny"}, func() float64 { return 1.5 })
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP g h\n# TYPE g gauge\ng{a=\"x\\ny\",b=\"qu\\\"ote\"} 1.5\n"
	if b.String() != want {
		t.Errorf("got %q want %q", b.String(), want)
	}
}

// TestAccessLogWraparound fills a small ring past capacity and checks
// the snapshot is the newest events, oldest-first, while the lifetime
// counters keep counting everything.
func TestAccessLogWraparound(t *testing.T) {
	const capacity, total = 8, 21
	l := NewAccessLog(capacity)
	for i := 1; i <= total; i++ {
		kind := "open"
		if i%3 == 0 {
			kind = "close"
		}
		l.Record(AccessEvent{SessionEvent: dppnet.SessionEvent{Kind: kind, ID: int64(i)}})
	}
	got := l.Snapshot()
	if len(got) != capacity {
		t.Fatalf("snapshot length %d, want %d", len(got), capacity)
	}
	for i, ev := range got {
		if want := int64(total - capacity + 1 + i); ev.ID != want {
			t.Errorf("slot %d: ID %d, want %d", i, ev.ID, want)
		}
		if ev.Time.IsZero() {
			t.Errorf("slot %d: zero timestamp", i)
		}
	}
	st := l.Stats()
	if st.Opens+st.Closes != total || st.Closes != total/3 {
		t.Errorf("stats %+v don't account for %d events", st, total)
	}
}

// TestAccessLogConcurrent hammers the ring from many writers with
// concurrent snapshots (run under -race in CI). Every snapshotted event
// must be internally consistent — the pointer publication makes torn
// records impossible — and the lifetime counts exact.
// TestAccessLogJSONIsStable: /accesslog's records are a dppnet.SessionEvent
// and a time, and render as the flat records the endpoint has always
// served — the same keys, in the same order, for an event of each kind.
func TestAccessLogJSONIsStable(t *testing.T) {
	at := time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC)
	alog := NewAccessLog(8)
	for i, ev := range []dppnet.SessionEvent{
		{Kind: "open", ID: 7, Peer: "10.0.0.2:5000", Table: "t", ShareScans: true, Resumed: true, Offset: 12, Tenant: "acme"},
		{Kind: "close", ID: 7, Peer: "10.0.0.2:5000", Table: "t", Batches: 40, Units: 12, Bytes: 123456, Duration: 1500 * time.Millisecond, Detail: "eof", Tenant: "acme"},
		{Kind: "error", Peer: "10.0.0.3:6000", Detail: "malformed handshake"},
	} {
		alog.Record(AccessEvent{Time: at.Add(time.Duration(i) * time.Second), SessionEvent: ev})
	}
	const want = "[\n  {\n    \"time\": \"2024-05-06T07:08:09Z\",\n    \"kind\": \"open\",\n    \"id\": 7,\n    \"peer\": \"10.0.0.2:5000\",\n    \"table\": \"t\",\n    \"share_scans\": true,\n    \"resumed\": true,\n    \"offset\": 12,\n    \"tenant\": \"acme\"\n  },\n  {\n    \"time\": \"2024-05-06T07:08:10Z\",\n    \"kind\": \"close\",\n    \"id\": 7,\n    \"peer\": \"10.0.0.2:5000\",\n    \"table\": \"t\",\n    \"batches\": 40,\n    \"units\": 12,\n    \"bytes\": 123456,\n    \"duration_ns\": 1500000000,\n    \"detail\": \"eof\",\n    \"tenant\": \"acme\"\n  },\n  {\n    \"time\": \"2024-05-06T07:08:11Z\",\n    \"kind\": \"error\",\n    \"peer\": \"10.0.0.3:6000\",\n    \"detail\": \"malformed handshake\"\n  }\n]\n"
	rec := httptest.NewRecorder()
	NewServer(Config{Registry: NewRegistry(), AccessLog: alog}).handleAccessLog(rec, httptest.NewRequest("GET", "/accesslog", nil))
	if got := rec.Body.String(); got != want {
		t.Fatalf("/accesslog\n got %s\nwant %s", got, want)
	}
}

func TestAccessLogConcurrent(t *testing.T) {
	const writers, perWriter, capacity = 8, 400, 64
	l := NewAccessLog(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range l.Snapshot() {
				if ev.ID != ev.Bytes {
					t.Errorf("torn event: ID %d Bytes %d", ev.ID, ev.Bytes)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := int64(w*perWriter + i)
				l.Record(AccessEvent{SessionEvent: dppnet.SessionEvent{Kind: "open", ID: n, Bytes: n}})
			}
		}(w)
	}
	for l.Stats().Opens < writers*perWriter {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if st := l.Stats(); st.Opens != writers*perWriter {
		t.Errorf("recorded %d opens, want %d", st.Opens, writers*perWriter)
	}
	if got := l.Snapshot(); len(got) != capacity {
		t.Errorf("snapshot length %d, want %d", len(got), capacity)
	}
}

// TestSidecarEndToEnd drives real dppnet traffic through a service,
// scrapes the sidecar like an operator would, and checks every endpoint
// — then shuts the whole stack down and asserts zero goroutine residue.
func TestSidecarEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := newTestService(t, dpp.Config{})
	netSrv := dppnet.NewServer(svc)
	alog := NewAccessLog(128)
	netSrv.OnSession = SessionHook(alog)
	reg := NewRegistry()
	RegisterProcess(reg)
	RegisterService(reg, Labels{"shard": "0"}, svc)
	RegisterNetServer(reg, Labels{"shard": "0"}, netSrv)
	RegisterAccessLog(reg, alog)

	netLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	netDone := make(chan error, 1)
	go func() { netDone <- netSrv.Serve(netLn) }()

	side := NewServer(Config{Registry: reg, AccessLog: alog, Statsz: func() any { return svc.Stats() }})
	sideLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sideDone := make(chan error, 1)
	go func() { sideDone <- side.Serve(sideLn) }()
	base := "http://" + sideLn.Addr().String()

	// Drive one remote session dry.
	client := dppnet.NewClient(netLn.Addr().String())
	rs, err := client.Open(context.Background(), testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The table's 64-row files cut into 32-row batches, so no batch crosses
	// a file: the server sends every full batch, and the client cuts only
	// the final short one, from the last file's tail.
	batches, short := 0, 0
	for {
		b, err := rs.Next(context.Background())
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		batches++
		if b.Size < testSpec().BatchSize {
			short++
		}
	}
	rs.Close()
	if batches == 0 {
		t.Fatal("no batches streamed")
	}
	// The server records the close after its handler returns, which the
	// client's EOF does not wait for.
	testutil.Eventually(t, func() bool { return len(alog.Snapshot()) == 2 },
		"the server logged the session's close")

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	metricsText := get("/metrics")
	for _, want := range []string{
		fmt.Sprintf(`recd_sessions_opened_total{shard="0"} 1`),
		fmt.Sprintf(`recd_net_sessions_served_total{shard="0"} 1`),
		fmt.Sprintf(`recd_net_batches_sent_total{shard="0"} %d`, batches-short),
		fmt.Sprintf(`recd_batches_served_total{shard="0"} %d`, batches-short),
		`recd_accesslog_events_total{kind="open"} 1`,
		`recd_accesslog_events_total{kind="close"} 1`,
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q\n%s", want, metricsText)
		}
	}

	if hz := get("/healthz"); !strings.Contains(hz, `"status":"ok"`) {
		t.Errorf("/healthz = %q", hz)
	}
	var stats dpp.Stats
	if err := json.Unmarshal([]byte(get("/statsz")), &stats); err != nil {
		t.Errorf("/statsz not dpp.Stats JSON: %v", err)
	} else if stats.SessionsOpened != 1 || stats.BatchesServed != int64(batches-short) {
		t.Errorf("/statsz = %+v, want 1 session / %d batches", stats, batches-short)
	}
	var events []AccessEvent
	if err := json.Unmarshal([]byte(get("/accesslog?n=10")), &events); err != nil {
		t.Fatalf("/accesslog not JSON: %v", err)
	}
	if len(events) != 2 || events[0].Kind != "open" || events[1].Kind != "close" {
		t.Fatalf("accesslog = %+v, want [open close]", events)
	}
	// The close event counts the batch pieces the server sent — every
	// batch the client received but the short one it cut itself — apart
	// from the closing pieces of each file.
	if sent := netSrv.Stats(); events[1].Detail != "eof" || events[1].Batches != int64(batches-short) ||
		events[1].Batches != sent.BatchesSent || events[1].Units != sent.UnitsSent || sent.UnitsSent == 0 {
		t.Errorf("close event = %+v, want eof with the %d batch and %d closing pieces sent", events[1], batches-short, sent.UnitsSent)
	}
	// pprof answers on the private mux.
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index looks wrong: %.120s", idx)
	}

	// Graceful teardown: sidecar first (drains scrapes), then the data
	// plane, then the service — and nothing may linger.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := side.Shutdown(ctx); err != nil {
		t.Fatalf("sidecar shutdown: %v", err)
	}
	if err := <-sideDone; err != nil {
		t.Fatalf("sidecar Serve: %v", err)
	}
	if err := netSrv.Close(); err != nil {
		t.Fatalf("net server close: %v", err)
	}
	if err := <-netDone; err != nil {
		t.Fatalf("net Serve: %v", err)
	}
	svc.Close()
	http.DefaultClient.CloseIdleConnections()
	testutil.WaitForGoroutines(t, before)
}

// TestSidecarShutdownIdempotent pins that Shutdown is safe to call
// twice and before any request was served.
func TestSidecarShutdownIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	side := NewServer(Config{Registry: NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- side.Serve(ln) }()
	ctx := context.Background()
	if err := side.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := side.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	testutil.WaitForGoroutines(t, before)
}
