// Command ladder is the repo's end-to-end benchmark of the DPP serving
// path: five fixed workloads, eight end-to-end metrics each, and a traced
// run that explains them layer by layer. It measures the product exactly
// as shipped — the fetch cost model included, and reported as its own
// per-layer number — by timing public functions from outside.
//
//	ladder -seed 11                       every workload, untraced
//	ladder -workload cold_scan -trace 1   one workload's per-layer run
//	ladder -compare a.jsonl b.jsonl       two recorded sets against the bounds
//
// README.md in this directory is the metric glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload by name (default: all five)")
	seed := fs.Int64("seed", 11, "data generation seed; reaches only datagen")
	seconds := fs.Float64("seconds", 10, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, writes trace-<workload>.json)")
	record := fs.String("record", "", "append each run's metrics to this JSON-lines file, for -compare")
	compare := fs.Bool("compare", false, "compare two recorded files: ladder -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ladder: -compare takes two recorded files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "ladder: -seconds must be positive and there are no positional arguments")
		return 2
	}
	defs := workloads
	if *workload != "" {
		def, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "ladder: unknown workload %q\n", *workload)
			return 2
		}
		defs = []workloadDef{def}
	}
	fmt.Fprintf(stdout, "ladder: seed=%d window_s=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	code := 0
	window := time.Duration(*seconds * float64(time.Second))
	for _, def := range defs {
		res, err := runWorkload(context.Background(), def, *seed, window, *trace != 0, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "ladder: %s: %v\n", def.Name, err)
			return 1
		}
		if *record != "" {
			if err := appendRecord(*record, recorded{def.Name, *seed, *seconds, *trace, res.values()}); err != nil {
				fmt.Fprintf(stderr, "ladder: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "ladder: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct || res.Failed != 0 {
			code = 1
		}
	}
	return code
}

// result is the line the driver reads: the last line of standard output
// of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r result) values() map[string]float64 {
	out := make(map[string]float64, len(r.Metrics))
	for k, v := range r.Metrics {
		out[k] = v.Value
	}
	return out
}

// runWorkload is one workload, set-up to result. Untraced it measures
// one window and reports the end-to-end metrics; traced it measures a
// short untraced window (the overhead baseline), the traced window, and
// the layer walk, and reports the per-layer metrics.
func runWorkload(ctx context.Context, def workloadDef, seed int64, window time.Duration, traced bool, out io.Writer) (result, error) {
	var fx *fixture
	setups := make([]float64, setupRepeats)
	for i := range setups {
		start := time.Now()
		var err error
		if fx, err = buildFixture(seed, def.kind, def.live); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	setup := time.Duration(median(setups) * float64(time.Second))
	debug.FreeOSMemory()
	fmt.Fprintf(out, "\n== %s: %d rows, %d files, %d stored B/row, serial reference %.0f rows/s ==\n",
		def.Name, fx.ref.Rows, len(fx.files), fx.storedBytes/int64(fx.ref.Rows), float64(fx.ref.Rows)/fx.ref.Wall.Seconds())

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	tally := func(m *meas) {
		res.Attempted += m.Ops
		res.Failed += m.Failed
		if m.mismatch {
			res.Correct = false
			fmt.Fprintf(out, "DIGEST MISMATCH: the stream differs from the serial reference\n")
		}
		if m.firstErr != nil {
			res.Correct = false
			fmt.Fprintf(out, "ERROR: %v\n", m.firstErr)
		}
	}
	// measure stands the workload's serving side up, runs the verified
	// pass and one window, and tears it down again. inspect, if given,
	// sees the rig while it is still up, with the counters read at the
	// window's boundaries.
	measure := func(window time.Duration, tr *Trace, inspect func(r *rig, m *meas, c0, c1 counters) error) (*meas, error) {
		r, err := def.start(fx, tr != nil)
		if err != nil {
			return nil, err
		}
		defer r.stop()
		var m *meas
		var c0 counters
		if def.live {
			c0 = readCounters(r)
			if m, err = runLiveTail(ctx, r, fx, window, tr); err != nil {
				return nil, err
			}
		} else {
			// The verified pass warms the caches, so the counters start after it.
			verify := &meas{}
			onePass(ctx, r, fx.ref, true, verify, nil, 0)
			tally(verify)
			c0 = readCounters(r)
			m = runClosedLoop(ctx, r, fx, window, tr)
		}
		tally(m)
		if inspect != nil {
			return m, inspect(r, m, c0, readCounters(r))
		}
		return m, nil
	}

	if !traced {
		m, err := measure(window, nil, nil)
		if err != nil {
			return result{}, err
		}
		vals := endToEndMetrics(m, setup)
		fill(&res, endToEnd, vals)
		printEndToEnd(out, m, vals, res)
		return res, nil
	}

	// Traced: 30% of the window untraced (the overhead baseline), 30%
	// traced, and the rest is there for the layer walk.
	part := window * 3 / 10
	base, err := measure(part, nil, nil)
	if err != nil {
		return result{}, err
	}
	goroutines := runtime.NumGoroutine()
	tr := newTrace()
	var vals map[string]float64
	m, err := measure(part, tr, func(r *rig, m *meas, c0, c1 counters) error {
		spans := tr.snapshot()
		vals = layerMetrics(m, r, fx, spans, c0, c1)
		if r.layer != "dppnet" {
			return nil
		}
		// The same warm stream without the network hop, for hop_ns_per_row.
		local, _, err := localOpen(r.services[0], dppSpecShared(fx))(ctx)
		if err != nil {
			return err
		}
		rows, inNext, err := drainLocal(ctx, local)
		if err != nil {
			return fmt.Errorf("local drain: %w", err)
		}
		remote := float64(totalsByName(spans)["dppnet.next"].Total) / float64(m.Rows)
		vals["dppnet.hop_ns_per_row"] = remote - float64(inNext)/float64(rows)
		return nil
	})
	if err != nil {
		return result{}, err
	}
	vals["proc.goroutines_leaked"] = float64(settledGoroutines(goroutines) - goroutines)
	baseRate, tracedRate := float64(base.Rows)/base.Wall.Seconds(), float64(m.Rows)/m.Wall.Seconds()
	vals["trace.overhead_pct"] = (baseRate - tracedRate) / baseRate * 100

	walked, err := layerWalk(ctx, fx, tr)
	if err != nil {
		return result{}, fmt.Errorf("layer walk: %w", err)
	}
	for k, v := range walked {
		vals[k] = v
	}
	path := "trace-" + def.Name + ".json"
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fill(&res, perLayer, vals)
	printPerLayer(out, vals, len(tr.snapshot()), path)
	return res, nil
}

// settledGoroutines waits briefly for torn-down goroutines to exit and
// returns the count; what is still above want after that has leaked.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50 && n > want; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
}

func printEndToEnd(out io.Writer, m *meas, vals map[string]float64, res result) {
	samples := map[string]int{"first_batch_p50_ms": len(m.First) + len(m.Lags), "batch_gap_p95_ms": len(m.Gaps),
		"setup_s": setupRepeats, "rows_per_s": len(m.Slices), "cpu_us_per_row": len(m.Slices)}
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-24s %14.4f %-8s", d.Name, vals[d.Name], d.Unit)
		if n, ok := samples[d.Name]; ok {
			fmt.Fprintf(out, " n=%d", n)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  %-24s %14.4f %-8s %d failed of %d ops, %d passes, %d rows in %.2f s\n",
		"error_rate", float64(res.Failed)/float64(res.Attempted), "share", res.Failed, res.Attempted, m.Passes, m.Rows, m.Wall.Seconds())
	fmt.Fprintf(out, "  slice rows/s:")
	for _, s := range m.Slices {
		fmt.Fprintf(out, " %.0f", float64(s.Rows)/s.Wall.Seconds())
	}
	fmt.Fprintln(out)
}

func printPerLayer(out io.Writer, vals map[string]float64, spans int, path string) {
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-36s %16.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	fmt.Fprintf(out, "  %d spans written to %s\n", spans, path)
}

// recorded is one run in a -record file.
type recorded struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  float64            `json:"seconds"`
	Trace    int                `json:"trace"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path string, rec recorded) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
