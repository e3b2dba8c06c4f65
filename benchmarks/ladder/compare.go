package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// runSet is the recorded runs of one side: workload → metric → values.
type runSet map[string]map[string][]float64

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec recorded
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue // end-to-end metrics come from untraced runs only
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], v)
		}
	}
	return set, sc.Err()
}

// verdict of one workload × metric pair.
const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
	verdictMissing    = "missing"
)

// judge compares side b against side a for one metric. worse is how far
// b's median is on the wrong side of a's, as a share of a's. A pair is a
// regression only when that exceeds the bound and both sides' own
// quartile spreads are inside it; a spread wider than the bound cannot
// resolve a difference of that size either way, so the pair is
// unresolved, not unchanged.
func judge(d metricDef, a, b []float64) (medA, medB, worse, spread float64, verdict string) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0, 0, verdictMissing
	}
	medA, medB = median(a), median(b)
	if medA != 0 {
		worse = (medB - medA) / medA
		if d.Better == "higher" {
			worse = -worse
		}
	}
	spread = quartileSpread(a)
	if s := quartileSpread(b); s > spread {
		spread = s
	}
	switch {
	case spread > d.Bound:
		verdict = verdictUnresolved
	case worse > d.Bound:
		verdict = verdictRegression
	default:
		verdict = verdictOK
	}
	return
}

// compareSets prints one row per workload × end-to-end metric and
// returns how many regressions and unresolved pairs it found.
func compareSets(a, b runSet, out io.Writer) (regressions, unresolved int) {
	fmt.Fprintf(out, "%-17s %-22s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			medA, medB, worse, spread, verdict := judge(d, a[w.Name][d.Name], b[w.Name][d.Name])
			switch verdict {
			case verdictMissing:
				continue
			case verdictRegression:
				regressions++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(out, "%-17s %-22s %14.4f %14.4f %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, d.Name, medA, medB, worse*100, spread*100, d.Bound*100, verdict)
		}
	}
	return
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRunSet(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "ladder: %v\n", err)
		return 2
	}
	b, err := readRunSet(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "ladder: %v\n", err)
		return 2
	}
	regressions, unresolved := compareSets(a, b, stdout)
	fmt.Fprintf(stdout, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}
