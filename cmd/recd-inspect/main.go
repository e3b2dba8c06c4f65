// Command recd-inspect dumps the structure and deduplication statistics
// of DWRF files written by recd-datagen: per-column compression, samples
// per session, and the analytic DedupeFactor each feature would get at a
// given batch size. It prints the top 15 features by DedupeFactor. Every
// file must carry the first one's sparse features.
//
// Usage:
//
//	recd-inspect -batch 2048 /tmp/recd-table/part-00000.dwrf ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/tensor"
)

// topN is how many features the DedupeFactor table lists.
const topN = 15

func main() {
	batch := flag.Int("batch", 2048, "batch size for DedupeFactor estimates")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: recd-inspect [-batch N] file.dwrf ...")
		os.Exit(2)
	}

	samples, keys, err := readFiles(os.Stdout, flag.Args())
	if err != nil {
		fatal(err)
	}

	s := datagen.MeasuredS(samples)
	fmt.Printf("\ntotal rows: %d, measured samples/session S = %.2f\n", len(samples), s)

	// Per-feature duplicate measurement + analytic DedupeFactor at the
	// requested batch size (using measured d(f) and l(f)).
	type featStat struct {
		key    string
		avgLen float64
		exact  float64
		factor float64
	}
	stats := make([]featStat, len(keys))
	for fi, key := range keys {
		var totalIDs int64
		var rows int64
		for _, smp := range samples {
			totalIDs += int64(len(smp.Sparse[fi]))
			rows++
		}
		avgLen := float64(totalIDs) / float64(rows)

		// Exact duplicate fraction across adjacent same-session rows.
		var dup, pairs int64
		for i := 1; i < len(samples); i++ {
			if samples[i].SessionID != samples[i-1].SessionID {
				continue
			}
			pairs++
			if slices.Equal(samples[i].Sparse[fi], samples[i-1].Sparse[fi]) {
				dup++
			}
		}
		d := 0.0
		if pairs > 0 {
			d = float64(dup) / float64(pairs)
		}
		m := tensor.FeatureModel{S: s, B: float64(*batch), D: d, L: avgLen}
		stats[fi] = featStat{key: key, avgLen: avgLen, exact: d * 100, factor: m.DedupeFactor()}
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].factor > stats[j].factor })

	fmt.Printf("\n%-20s %10s %10s %12s %8s\n", "feature", "avg_len", "dup%", "DedupeFactor", "dedup?")
	for _, st := range stats[:min(topN, len(stats))] {
		worth := ""
		if st.factor > tensor.DefaultDedupeThreshold {
			worth = "yes"
		}
		fmt.Printf("%-20s %10.1f %10.1f %12.2f %8s\n", st.key, st.avgLen, st.exact, st.factor, worth)
	}
}

// readFiles reads every sample of the DWRF files at paths, in order,
// printing each file's structure to w, and returns them with the sparse
// keys that index every sample's Sparse. A file whose sparse keys differ
// from the first file's is refused: its samples' features would be
// counted under another feature's name, or past the end of the list.
func readFiles(w io.Writer, paths []string) ([]datagen.Sample, []string, error) {
	var samples []datagen.Sample
	var keys []string
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		fr, err := dwrf.OpenReader(data)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 {
			keys = fr.SparseKeys()
		} else if fk := fr.SparseKeys(); !slices.Equal(fk, keys) {
			return nil, nil, fmt.Errorf("%s: sparse features %v differ from %s's %v", path, fk, paths[0], keys)
		}
		ss, err := fr.ReadAll()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(w, "%s: %d rows, %d stripes, %d sparse features, %d dense\n",
			path, fr.NumRows(), fr.NumStripes(), len(keys), fr.DenseCount())
		samples = append(samples, ss...)
	}
	return samples, keys, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recd-inspect:", err)
	os.Exit(1)
}
