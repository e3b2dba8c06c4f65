package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestPaperDedupeModelExample checks the paper's §4.2 worked example:
// B = S = 3, l(b) = 3, d(b) = 0.5 gives DedupeLen = 6, DedupeFactor = 1.5.
func TestPaperDedupeModelExample(t *testing.T) {
	m := FeatureModel{S: 3, B: 3, D: 0.5, L: 3}
	if got := m.DedupeLen(); math.Abs(got-6) > 1e-9 {
		t.Errorf("DedupeLen = %v, want 6", got)
	}
	if got := m.DedupeFactor(); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("DedupeFactor = %v, want 1.5", got)
	}
}

func TestDedupeModelMonotonicity(t *testing.T) {
	base := FeatureModel{S: 8, B: 4096, D: 0.8, L: 100}
	f0 := base.DedupeFactor()
	// Factor increases with S, d(f); DedupeLen increases with l(f), B.
	moreS := base
	moreS.S = 16
	if moreS.DedupeFactor() <= f0 {
		t.Errorf("factor should grow with S: %v vs %v", moreS.DedupeFactor(), f0)
	}
	moreD := base
	moreD.D = 0.95
	if moreD.DedupeFactor() <= f0 {
		t.Errorf("factor should grow with d(f): %v vs %v", moreD.DedupeFactor(), f0)
	}
	if base.DedupeFactor() < 1 {
		t.Errorf("factor %v < 1", base.DedupeFactor())
	}
}

func TestDedupeModelEdgeCases(t *testing.T) {
	// d=0: nothing duplicated, factor exactly 1.
	m := FeatureModel{S: 10, B: 100, D: 0, L: 50}
	if got := m.DedupeFactor(); got != 1 {
		t.Errorf("d=0 factor = %v, want 1", got)
	}
	// S=1: single sample per session, factor 1 regardless of d.
	m = FeatureModel{S: 1, B: 100, D: 0.99, L: 50}
	if got := m.DedupeFactor(); got != 1 {
		t.Errorf("S=1 factor = %v, want 1", got)
	}
	// S<=0 degenerates to no dedup.
	m = FeatureModel{S: 0, B: 100, D: 0.9, L: 50}
	if got := m.DedupeLen(); got != 5000 {
		t.Errorf("S=0 DedupeLen = %v, want 5000", got)
	}
}

func TestWorthDeduplicating(t *testing.T) {
	// The paper's example lands exactly at 1.5, which is not > 1.5.
	if (FeatureModel{S: 3, B: 3, D: 0.5, L: 3}).WorthDeduplicating() {
		t.Error("factor exactly 1.5 should not pass the > 1.5 threshold")
	}
	if !(FeatureModel{S: 16.5, B: 4096, D: 0.9, L: 100}).WorthDeduplicating() {
		t.Error("high-dup long feature should pass the threshold")
	}
	if (FeatureModel{S: 16.5, B: 4096, D: 0.05, L: 100}).WorthDeduplicating() {
		t.Error("item-like low-dup feature should not pass")
	}
}

// TestDedupeModelPredictsMeasuredFactor validates the analytic model
// against the actual dedup implementation on a synthetic adjacent-row
// workload matching the model's assumptions.
func TestDedupeModelPredictsMeasuredFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const (
		B = 8192
		S = 8
		L = 40
		D = 0.75
	)
	rows := make([][]Value, 0, B)
	var cur []Value
	fresh := func() []Value {
		row := make([]Value, L)
		for c := range row {
			row[c] = Value(rng.Int63())
		}
		return row
	}
	for len(rows) < B {
		cur = fresh()
		rows = append(rows, cur)
		// S-1 more samples in this session; each keeps the value with
		// probability D.
		for s := 1; s < S && len(rows) < B; s++ {
			if rng.Float64() >= D {
				cur = fresh()
			}
			rows = append(rows, cur)
		}
	}
	ik, err := DedupJagged([]string{"f"}, []Jagged{NewJagged(rows)})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	measured := ik.MeasuredFactor()
	predicted := FeatureModel{S: S, B: B, D: D, L: L}.DedupeFactor()
	// The model assumes adjacent-row dedup; the implementation can also
	// catch non-adjacent repeats, so measured >= predicted within noise.
	if measured < predicted*0.9 {
		t.Errorf("measured factor %.3f far below model prediction %.3f", measured, predicted)
	}
	if measured > predicted*1.35 {
		t.Errorf("measured factor %.3f far above model prediction %.3f", measured, predicted)
	}
}
