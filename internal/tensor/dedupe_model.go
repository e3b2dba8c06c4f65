package tensor

// Analytical deduplication model from paper §4.2 ("Using IKJTs").
//
// For a feature f with:
//
//	S    — average number of samples per session,
//	B    — batch size,
//	d(f) — probability f's value is unchanged across adjacent rows,
//	l(f) — average list length of f,
//
// the paper defines
//
//	DedupeLen(f)    = l(f) * B * (1 - (S-1)/S * d(f))
//	DedupeFactor(f) = l(f) * B / DedupeLen(f)
//
// DedupeLen is the expected size of the values slice after deduplicating f
// in each training batch; DedupeFactor is the ratio of the original values
// length to the deduplicated length. The total amount deduplicated grows
// with S, l(f) and d(f), which aligns with data-scaling trends (§2.2).

// FeatureModel carries the per-feature parameters of the analytic model.
type FeatureModel struct {
	S float64 // average samples per session within the batch
	B float64 // batch size
	D float64 // probability the value is unchanged across adjacent rows
	L float64 // average list length
}

// DedupeLen returns the expected deduplicated values-slice length per batch.
func (m FeatureModel) DedupeLen() float64 {
	if m.S <= 0 {
		return m.L * m.B
	}
	keep := 1 - (m.S-1)/m.S*m.D
	return m.L * m.B * keep
}

// DedupeFactor returns the expected deduplication factor. It is >= 1 for
// all valid parameters (0 <= D <= 1, S >= 1).
func (m FeatureModel) DedupeFactor() float64 {
	dl := m.DedupeLen()
	if dl == 0 {
		// Fully duplicated in the limit; treat as the batch-size bound.
		return m.B
	}
	return m.L * m.B / dl
}

// DefaultDedupeThreshold is the DedupeFactor above which ML engineers
// typically choose to deduplicate a feature (paper §4.2, §7: "we typically
// deduplicate features with DedupeFactor(f) > 1.5").
const DefaultDedupeThreshold = 1.5

// WorthDeduplicating applies the paper's heuristic threshold.
func (m FeatureModel) WorthDeduplicating() bool {
	return m.DedupeFactor() > DefaultDedupeThreshold
}
