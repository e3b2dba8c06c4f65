package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndSampleCount(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(100-i) * time.Millisecond // descending: summarize must sort
	}
	d := summarize(samples)
	if d.N != 100 || d.P50 != 50 || d.P90 != 90 || d.P95 != 95 || d.P99 != 99 {
		t.Fatalf("summarize(1..100 ms) = %+v", d)
	}
	if got := summarize(samples[:1]); got.N != 1 || got.P50 != 100 || got.P99 != 100 {
		t.Fatalf("one sample: %+v", got)
	}
	if got := summarize(nil); got != (dist{}) {
		t.Fatalf("no samples: %+v", got)
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Fatalf("nearest-rank p50 of 4 = %v, want 2", got)
	}
}

// The acceptance rule takes quartiles as Python's
// statistics.quantiles(values, n=4) does; these are its answers.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread(1..10) = %v, want %v", got, want)
	}
	three := []float64{2, 4, 9} // quantiles → [2.0, 4.0, 9.0]
	if got, want := quartileSpread(three), (9.0-2.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread(2,4,9) = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Fatal("one value has no spread")
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	t0 := time.Unix(100, 0)
	for i, want := range []time.Duration{0, 125 * time.Millisecond, 250 * time.Millisecond} {
		if got := dueTime(t0, i, landPeriod).Sub(t0); got != want {
			t.Fatalf("chunk %d due at +%v, want +%v", i, got, want)
		}
	}
	// A late lander does not move later due times: they hang off t0.
	if dueTime(t0, 80, landPeriod).Sub(t0) != 10*time.Second {
		t.Fatal("due times drift")
	}
	for _, c := range []struct {
		window time.Duration
		want   int
	}{{10 * time.Second, 80}, {time.Second, 8}, {130 * time.Millisecond, 2}, {time.Millisecond, 1}} {
		if got := chunksInWindow(c.window, landPeriod); got != c.want {
			t.Fatalf("chunksInWindow(%v) = %d, want %d", c.window, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "next", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "next", Start: 20, End: 50},   // overlaps span 1: union is 10..50
		{ID: 3, Parent: 0, Name: "close", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 4, Parent: 2, Name: "inner", Start: 25, End: 35},
	}
	tot := totalsByName(spans)
	if got := tot["pass"]; got.Count != 1 || got.Total != 100 || got.Self != 100-40-10 {
		t.Fatalf("pass totals %+v", got)
	}
	if got := tot["next"]; got.Count != 2 || got.Total != 50 || got.Self != 20+30-10 {
		t.Fatalf("next totals %+v", got)
	}
	if got := durationsOf(spans, "next"); len(got) != 2 || got[0] != 20 || got[1] != 30 {
		t.Fatalf("durationsOf %v", got)
	}
}

func TestTracksNestAndMerge(t *testing.T) {
	var untraced *Trace
	k := untraced.newTrack(1)
	k.end(k.begin("x")) // must be a no-op, not a nil dereference

	tr := newTrace()
	a, b := tr.newTrack(1), tr.newTrack(2)
	outer := a.begin("pass")
	inner := a.begin("next")
	other := b.begin("next")
	a.end(inner)
	b.end(other)
	a.end(outer)
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans", len(spans))
	}
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("span %d: %+v", i, s)
		}
	}
	if spans[1].Parent != 0 || spans[2].Parent != -1 || spans[2].Pass != 2 || spans[0].Track == spans[2].Track {
		t.Fatalf("nesting lost in merge: %+v", spans)
	}
}

func writeRuns(t *testing.T, name string, perWorkload map[string]map[string][]float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for w, metrics := range perWorkload {
		n := 0
		for _, vals := range metrics {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			rec := recorded{Workload: w, Seed: int64(i), Seconds: 10, Metrics: map[string]float64{}}
			for m, vals := range metrics {
				rec.Metrics[m] = vals[i]
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	return path
}

func TestCompare(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	slower := make([]float64, len(steady))
	noisy := make([]float64, len(steady))
	for i, v := range steady {
		slower[i] = v * 0.6
		noisy[i] = v * (0.6 + 0.08*float64(i))
	}
	a := writeRuns(t, "a.jsonl", map[string]map[string][]float64{
		"cold_scan":   {"rows_per_s": steady, "cpu_us_per_row": steady},
		"remote_warm": {"rows_per_s": steady},
	})

	// verdicts maps "workload/metric" to the last column of its row.
	verdicts := func(out string) map[string]string {
		rows := map[string]string{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 8 {
				rows[f[0]+"/"+f[1]] = f[len(f)-1]
			}
		}
		return rows
	}

	var out bytes.Buffer
	if code := compareFiles(a, a, &out, io.Discard); code != 0 {
		t.Fatalf("a set against itself exits %d:\n%s", code, out.String())
	}
	if rows := verdicts(out.String()); len(rows) != 4 || rows["cold_scan/rows_per_s"] != verdictOK ||
		rows["cold_scan/cpu_us_per_row"] != verdictOK || rows["remote_warm/rows_per_s"] != verdictOK {
		t.Fatalf("self-compare is not clean: %v\n%s", rows, out.String())
	}

	// rows_per_s is better higher: 40% lower, steady on both sides, is a regression.
	// cpu_us_per_row is better lower: 40% lower is an improvement.
	b := writeRuns(t, "b.jsonl", map[string]map[string][]float64{
		"cold_scan":   {"rows_per_s": slower, "cpu_us_per_row": slower},
		"remote_warm": {"rows_per_s": noisy},
	})
	out.Reset()
	if code := compareFiles(a, b, &out, io.Discard); code != 1 {
		t.Fatalf("a regression exits %d:\n%s", code, out.String())
	}
	rows := verdicts(out.String())
	if rows["cold_scan/rows_per_s"] != verdictRegression || rows["cold_scan/cpu_us_per_row"] != verdictOK ||
		rows["remote_warm/rows_per_s"] != verdictUnresolved {
		t.Fatalf("verdicts %v\n%s", rows, out.String())
	}
	if !strings.Contains(out.String(), "1 regressions, 1 unresolved") {
		t.Fatalf("summary line missing:\n%s", out.String())
	}

	// A spread wider than the bound cannot be called unchanged either.
	out.Reset()
	c := writeRuns(t, "c.jsonl", map[string]map[string][]float64{"remote_warm": {"rows_per_s": noisy}})
	if code := compareFiles(c, c, &out, io.Discard); code != 0 || verdicts(out.String())["remote_warm/rows_per_s"] != verdictUnresolved {
		t.Fatalf("noisy self-compare: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(a, filepath.Join(t.TempDir(), "missing"), io.Discard, io.Discard); code != 2 {
		t.Fatalf("missing file exits %d", code)
	}
}

// shrink makes the fixture small enough for tier-1: ~2.5k rows in three
// files, one set-up per run.
func shrink(t *testing.T) {
	t.Helper()
	s, r := tableSessions, setupRepeats
	tableSessions, setupRepeats = 150, 1
	t.Cleanup(func() { tableSessions, setupRepeats = s, r })
}

func TestSeedDeterminism(t *testing.T) {
	shrink(t)
	build := func(seed int64, kind specKind) *fixture {
		fx, err := buildFixture(seed, kind, false)
		if err != nil {
			t.Fatal(err)
		}
		return fx
	}
	a, b, c := build(5, fullSpec), build(5, fullSpec), build(6, fullSpec)
	ra, rb := a.ref, b.ref
	ra.Wall, rb.Wall = 0, 0
	if ra != rb || a.storedBytes != b.storedBytes || len(a.files) != len(b.files) {
		t.Fatalf("same seed, different inputs:\n%+v\n%+v", ra, rb)
	}
	if a.ref.Digest == c.ref.Digest {
		t.Fatal("different seeds produced the same stream")
	}
	if n := build(5, narrowSpec); n.ref.Digest == a.ref.Digest || n.ref.Rows != a.ref.Rows || n.ref.EgressBytes >= a.ref.EgressBytes {
		t.Fatalf("narrow spec should read the same rows and ship fewer bytes: %+v vs %+v", n.ref, a.ref)
	}
}

// TestSmoke runs every workload end to end, untraced and traced, on the
// shrunk fixture with short windows. No timing assertions: only that no
// op failed, every verified pass matched the oracle, and every metric
// BENCHMARK.json names is reported.
func TestSmoke(t *testing.T) {
	shrink(t)
	t.Chdir(t.TempDir()) // the traced run writes trace-<workload>.json here
	for _, def := range workloads {
		t.Run(def.Name, func(t *testing.T) {
			var log bytes.Buffer
			res, err := runWorkload(context.Background(), def, 7, time.Second, false, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("%d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive %s", d.Name, v, d.Unit)
				}
			}

			log.Reset()
			res, err = runWorkload(context.Background(), def, 7, 2*time.Second, true, &log)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v", d.Name, v)
				}
			}
			for _, name := range []string{"reader.fill_ns_per_row", "dwrf.decode_ns_per_row", "reader.serial_rows_per_s", "proc.allocs_per_row"} {
				if !(res.Metrics[name].Value > 0) {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			if leaked := res.Metrics["proc.goroutines_leaked"].Value; leaked != 0 {
				t.Errorf("%v goroutines leaked", leaked)
			}
			data, err := os.ReadFile("trace-" + def.Name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var spans []Span
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace file: %d spans, %v", len(spans), err)
			}
		})
	}
}

// TestCommandLine drives run() the way the driver does.
func TestCommandLine(t *testing.T) {
	shrink(t)
	t.Chdir(t.TempDir())
	var out, errOut bytes.Buffer
	args := []string{"--workload", "remote_warm", "--seed", "3", "--seconds", "0.5", "--trace", "0", "-record", "runs.jsonl"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %v", res)
	}
	set, err := readRunSet("runs.jsonl")
	if err != nil || len(set["remote_warm"]["rows_per_s"]) != 1 {
		t.Fatalf("record file: %v %v", set, err)
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard); code != 2 {
		t.Fatalf("unknown workload exits %d", code)
	}
}

// TestBenchmarkJSON pins the root BENCHMARK.json to the tables the
// program reports from, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmarks/ladder" || spec.RunSeconds < 10 {
		t.Fatalf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v vs %q (%d chars)", i, spec.Workloads[i], w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
