// Package etl implements the stream/batch processing stage of the pipeline
// (paper §2.1): joining raw feature logs with event logs to produce labeled
// training samples, landing them into time-partitioned tables, and — for
// RecD — clustering each partition by session ID and sorting by log
// timestamp (optimization O2) so that downstream readers can deduplicate a
// session's samples within a batch.
package etl

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/datagen"
)

// FeatureRecord is the raw feature snapshot an inference server logs for
// one request (features are logged at inference time to avoid data
// leakage, paper §2.1).
type FeatureRecord struct {
	RequestID int64
	SessionID int64
	UserID    int64
	Timestamp int64
	Sparse    [][]int64
	Dense     []float32
}

// EventRecord is the impression outcome logged by the user-facing service.
type EventRecord struct {
	RequestID int64
	Label     int8
}

// SplitLogs decomposes samples into the two raw log streams the join
// consumes; used to exercise the join path against generated data.
func SplitLogs(samples []datagen.Sample) ([]FeatureRecord, []EventRecord) {
	feats := make([]FeatureRecord, len(samples))
	events := make([]EventRecord, len(samples))
	for i, s := range samples {
		feats[i] = FeatureRecord{
			RequestID: s.RequestID,
			SessionID: s.SessionID,
			UserID:    s.UserID,
			Timestamp: s.Timestamp,
			Sparse:    s.Sparse,
			Dense:     s.Dense,
		}
		events[i] = EventRecord{RequestID: s.RequestID, Label: s.Label}
	}
	return feats, events
}

// Join hash-joins feature records with event records on request ID,
// producing labeled samples. Features without a matching event (impression
// never resolved) are dropped, mirroring the production inner join.
func Join(features []FeatureRecord, events []EventRecord) []datagen.Sample {
	byReq := make(map[int64]int8, len(events))
	for _, e := range events {
		byReq[e.RequestID] = e.Label
	}
	out := make([]datagen.Sample, 0, len(features))
	for _, f := range features {
		label, ok := byReq[f.RequestID]
		if !ok {
			continue
		}
		out = append(out, datagen.Sample{
			SessionID: f.SessionID,
			UserID:    f.UserID,
			RequestID: f.RequestID,
			Timestamp: f.Timestamp,
			Sparse:    f.Sparse,
			Dense:     f.Dense,
			Label:     label,
		})
	}
	return out
}

// ClusterBySession reorders a partition so that each session's samples are
// contiguous and timestamp-ordered within the session (the paper's CLUSTER
// BY session ID + SORT BY timestamp ETL job, §4.1). Sessions appear in
// order of their first timestamp so the output remains roughly
// time-ordered at session granularity. The input is not modified.
func ClusterBySession(samples []datagen.Sample) []datagen.Sample {
	out := append([]datagen.Sample(nil), samples...)
	first := map[int64]int64{}
	for _, s := range out {
		if t, ok := first[s.SessionID]; !ok || s.Timestamp < t {
			first[s.SessionID] = s.Timestamp
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		fa, fb := first[a.SessionID], first[b.SessionID]
		if fa != fb {
			return fa < fb
		}
		if a.SessionID != b.SessionID {
			return a.SessionID < b.SessionID
		}
		return a.Timestamp < b.Timestamp
	})
	return out
}

// ValidateClustered checks the clustering invariants: each session's
// samples are contiguous and internally timestamp-ordered, and the multiset
// of request IDs is unchanged from the input.
func ValidateClustered(original, clustered []datagen.Sample) error {
	if len(original) != len(clustered) {
		return fmt.Errorf("etl: clustered has %d samples, want %d", len(clustered), len(original))
	}
	counts := map[int64]int{}
	for _, s := range original {
		counts[s.RequestID]++
	}
	for _, s := range clustered {
		counts[s.RequestID]--
	}
	for req, c := range counts {
		if c != 0 {
			return fmt.Errorf("etl: request %d count imbalance %d", req, c)
		}
	}
	seen := map[int64]bool{}
	var cur int64 = -1 << 62
	var lastTS int64
	for i, s := range clustered {
		if s.SessionID != cur {
			if seen[s.SessionID] {
				return fmt.Errorf("etl: session %d not contiguous (sample %d)", s.SessionID, i)
			}
			seen[s.SessionID] = true
			cur = s.SessionID
			lastTS = s.Timestamp
			continue
		}
		if s.Timestamp < lastTS {
			return fmt.Errorf("etl: session %d not time ordered at sample %d", s.SessionID, i)
		}
		lastTS = s.Timestamp
	}
	return nil
}

// DownsamplePolicy selects the unit of downsampling.
type DownsamplePolicy int

const (
	// PerSample drops individual samples independently (the production
	// default the paper critiques in §7: it shrinks S).
	PerSample DownsamplePolicy = iota
	// PerSession drops whole sessions, preserving each kept session's S
	// and thereby the dedup opportunity (the paper's proposed improvement).
	PerSession
)

// Downsample keeps approximately rate (0..1] of the data under the given
// policy. Deterministic for a given seed.
func Downsample(samples []datagen.Sample, rate float64, policy DownsamplePolicy, seed int64) []datagen.Sample {
	if rate >= 1 {
		return append([]datagen.Sample(nil), samples...)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []datagen.Sample
	switch policy {
	case PerSample:
		for _, s := range samples {
			if rng.Float64() < rate {
				out = append(out, s)
			}
		}
	case PerSession:
		keep := map[int64]bool{}
		decided := map[int64]bool{}
		for _, s := range samples {
			if !decided[s.SessionID] {
				decided[s.SessionID] = true
				keep[s.SessionID] = rng.Float64() < rate
			}
			if keep[s.SessionID] {
				out = append(out, s)
			}
		}
	}
	return out
}
