package experiments

import (
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) *Result {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	res, err := r.Run(Small)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result id %q want %q", res.ID, id)
	}
	return res
}

func mustValue(t *testing.T, res *Result, label, cell string) float64 {
	t.Helper()
	for _, row := range res.Rows {
		for _, c := range row.Values {
			if row.Label == label && c.Name == cell {
				return c.Value
			}
		}
	}
	t.Fatalf("%s: missing %s/%s in\n%s", res.ID, label, cell, res)
	return 0
}

func TestRegistry(t *testing.T) {
	want := []string{"fig3", "fig4", "fig7", "scribe", "singlenode",
		"fig8", "fig9", "table2", "table4", "table3", "fig10",
		"dedupefactor", "partial", "downsample", "accuracy"}
	got := map[string]bool{}
	for _, r := range All() {
		got[r.ID] = true
		if r.Brief == "" || r.Run == nil {
			t.Errorf("%s: incomplete runner", r.ID)
		}
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should miss unknown ids")
	}
}

// TestFig3Shape: partitions are session-rich, interleaved batches are
// session-poor, clustering restores locality.
func TestFig3Shape(t *testing.T) {
	res := runExp(t, "fig3")
	partition := mustValue(t, res, "partition", "mean_s")
	batch := mustValue(t, res, "batch4096 (interleaved)", "mean_s")
	clustered := mustValue(t, res, "batch4096 (clustered)", "mean_s")
	if partition < 8 {
		t.Fatalf("partition S %.2f too low (paper 16.5)", partition)
	}
	if batch > partition/2 {
		t.Fatalf("interleaved batch S %.2f should collapse below partition %.2f", batch, partition)
	}
	if clustered < batch*2 {
		t.Fatalf("clustered batch S %.2f should far exceed interleaved %.2f", clustered, batch)
	}
}

// TestFig4Shape: most feature values are duplicates; partial ≥ exact;
// user features ≫ item features.
func TestFig4Shape(t *testing.T) {
	res := runExp(t, "fig4")
	exact := mustValue(t, res, "all features (mean)", "exact")
	partial := mustValue(t, res, "all features (mean)", "partial")
	user := mustValue(t, res, "user features (mean)", "exact")
	item := mustValue(t, res, "item features (mean)", "exact")
	if exact < 50 || exact > 100 {
		t.Fatalf("exact dup %.1f%% implausible (paper 80.0%%)", exact)
	}
	if partial < exact {
		t.Fatalf("partial %.1f%% below exact %.1f%%", partial, exact)
	}
	if user <= item+20 {
		t.Fatalf("user dup %.1f%% should far exceed item dup %.1f%%", user, item)
	}
}

// TestFig7Shape: every RM gains on all three axes; RM1 gains most on the
// trainer; RM3's storage gain trails RM1's.
func TestFig7Shape(t *testing.T) {
	res := runExp(t, "fig7")
	for _, rm := range []string{"RM1", "RM2", "RM3"} {
		for _, axis := range []string{"trainer", "reader", "storage"} {
			v := mustValue(t, res, rm, axis)
			if v <= 1 {
				t.Errorf("%s %s gain %.2fx not above 1", rm, axis, v)
			}
		}
	}
	rm1 := mustValue(t, res, "RM1", "trainer")
	rm2 := mustValue(t, res, "RM2", "trainer")
	if rm1 <= rm2 {
		t.Errorf("RM1 trainer gain %.2f should exceed RM2 %.2f (sequence features)", rm1, rm2)
	}
	s1 := mustValue(t, res, "RM1", "storage")
	s3 := mustValue(t, res, "RM3", "storage")
	if s1 <= s3 {
		t.Errorf("RM1 storage gain %.2f should exceed RM3 %.2f (higher S)", s1, s3)
	}
}

func TestScribeShape(t *testing.T) {
	res := runExp(t, "scribe")
	imp := mustValue(t, res, "improvement", "ratio")
	if imp <= 1.05 {
		t.Fatalf("session sharding improvement %.2fx too small (paper 1.5x)", imp)
	}
}

func TestSingleNodeShape(t *testing.T) {
	res := runExp(t, "singlenode")
	single := mustValue(t, res, "single-node (8 GPUs)", "speedup")
	if single <= 1 {
		t.Fatalf("single-node speedup %.2fx should exceed 1 (paper 2.18x)", single)
	}
	sA2A := mustValue(t, res, "single-node (8 GPUs)", "a2a_ms")
	mA2A := mustValue(t, res, "multi-node (48 GPUs)", "a2a_ms")
	if sA2A >= mA2A {
		t.Fatalf("single-node baseline A2A %.3fms should be below multi-node %.3fms", sA2A, mA2A)
	}
}

// TestFig8Shape: RecD cuts exposed A2A roughly in half and cuts the
// total; RM1 (attention) also cuts GEMM.
func TestFig8Shape(t *testing.T) {
	res := runExp(t, "fig8")
	for _, rm := range []string{"RM1", "RM2", "RM3"} {
		baseTotal := mustValue(t, res, rm+" baseline", "total")
		recdTotal := mustValue(t, res, rm+" recd", "total")
		if recdTotal >= baseTotal {
			t.Errorf("%s: recd total %.2f not below baseline %.2f", rm, recdTotal, baseTotal)
		}
		baseA2A := mustValue(t, res, rm+" baseline", "a2a")
		recdA2A := mustValue(t, res, rm+" recd", "a2a")
		if recdA2A >= baseA2A {
			t.Errorf("%s: recd A2A %.2f not below baseline %.2f", rm, recdA2A, baseA2A)
		}
	}
	baseGEMM := mustValue(t, res, "RM1 baseline", "gemm")
	recdGEMM := mustValue(t, res, "RM1 recd", "gemm")
	if recdGEMM >= baseGEMM {
		t.Errorf("RM1 GEMM should shrink with dedup transformers: %.2f vs %.2f", recdGEMM, baseGEMM)
	}
}

// TestFig9Shape: the ablation ladder is monotone: baseline ≈ CT <
// DE+JIS < +DC ≤ +bigger batch.
func TestFig9Shape(t *testing.T) {
	res := runExp(t, "fig9")
	var ladder []float64
	for _, row := range res.Rows {
		ladder = append(ladder, row.Values[0].Value)
	}
	if len(ladder) != 5 {
		t.Fatalf("ladder rows = %d", len(ladder))
	}
	// CT alone provides no training gain (paper: "clustered tables
	// provide no training throughput benefit").
	if ladder[1] > ladder[0]*1.15 || ladder[1] < ladder[0]*0.85 {
		t.Errorf("CT-only gain %.2f should be ≈1.0", ladder[1])
	}
	if ladder[2] <= ladder[1] {
		t.Errorf("DE+JIS %.2f should beat CT %.2f", ladder[2], ladder[1])
	}
	if ladder[3] <= ladder[2] {
		t.Errorf("+DC %.2f should beat DE+JIS %.2f", ladder[3], ladder[2])
	}
	if ladder[4] < ladder[3] {
		t.Errorf("+batch %.2f should not regress +DC %.2f", ladder[4], ladder[3])
	}
}

// TestTable2Shape: RecD slashes memory utilization at the same batch and
// raises compute efficiency; bigger batches buy throughput back.
func TestTable2Shape(t *testing.T) {
	res := runExp(t, "table2")
	baseMem := mustValue(t, res, "baseline", "max_mem")
	recdMem := mustValue(t, res, "recd", "max_mem")
	if recdMem >= baseMem {
		t.Fatalf("recd max mem %.1f%% not below baseline %.1f%%", recdMem, baseMem)
	}
	recdQPS := mustValue(t, res, "recd", "norm_qps")
	if recdQPS <= 1 {
		t.Fatalf("recd norm QPS %.2f not above 1", recdQPS)
	}
	batchQPS := mustValue(t, res, "recd + 3x batch", "norm_qps")
	if batchQPS <= recdQPS {
		t.Fatalf("3x batch QPS %.2f should beat same-batch recd %.2f", batchQPS, recdQPS)
	}
	embMem := mustValue(t, res, "recd + 2x emb dim", "max_mem")
	if embMem <= recdMem {
		t.Fatalf("2x emb dim mem %.1f%% should exceed recd %.1f%%", embMem, recdMem)
	}
	eff := mustValue(t, res, "recd", "comp_eff")
	if eff <= 1 {
		t.Fatalf("recd compute efficiency %.2f not above 1 (paper 1.73)", eff)
	}
}

// TestTable3Shape: clustering cuts read bytes at equal send bytes; IKJTs
// cut send bytes at equal read bytes.
func TestTable3Shape(t *testing.T) {
	res := runExp(t, "table3")
	baseRead := mustValue(t, res, "baseline", "read")
	baseSend := mustValue(t, res, "baseline", "send")
	clustRead := mustValue(t, res, "with cluster (O2)", "read")
	clustSend := mustValue(t, res, "with cluster (O2)", "send")
	ikjtRead := mustValue(t, res, "with IKJT (O3/O4)", "read")
	ikjtSend := mustValue(t, res, "with IKJT (O3/O4)", "send")

	if clustRead >= baseRead*0.9 {
		t.Fatalf("clustering should cut read bytes: %.1f vs %.1f", clustRead, baseRead)
	}
	if rel := clustSend / baseSend; rel < 0.98 || rel > 1.02 {
		t.Fatalf("clustering should not change send bytes: %.1f vs %.1f", clustSend, baseSend)
	}
	if rel := ikjtRead / clustRead; rel < 0.98 || rel > 1.02 {
		t.Fatalf("IKJTs should not change read bytes: %.1f vs %.1f", ikjtRead, clustRead)
	}
	if ikjtSend >= clustSend*0.95 {
		t.Fatalf("IKJTs should cut send bytes: %.1f vs %.1f", ikjtSend, clustSend)
	}
}

// TestFig10Shape: RecD cuts fill time markedly; total reader CPU shrinks.
func TestFig10Shape(t *testing.T) {
	res := runExp(t, "fig10")
	for _, rm := range []string{"RM1", "RM2", "RM3"} {
		baseFill := mustValue(t, res, rm+" baseline", "fill")
		recdFill := mustValue(t, res, rm+" recd", "fill")
		if recdFill >= baseFill*0.9 {
			t.Errorf("%s: fill time should drop markedly: %.2f vs %.2f", rm, recdFill, baseFill)
		}
		baseTotal := mustValue(t, res, rm+" baseline", "total")
		recdTotal := mustValue(t, res, rm+" recd", "total")
		if recdTotal >= baseTotal {
			t.Errorf("%s: total reader CPU should shrink: %.2f vs %.2f", rm, recdTotal, baseTotal)
		}
	}
}

// TestDedupeFactorModel: the analytic model tracks the measured factor
// within a loose band across the sweep.
func TestDedupeFactorModel(t *testing.T) {
	res := runExp(t, "dedupefactor")
	for _, row := range res.Rows {
		var analytic, measured float64
		for _, c := range row.Values {
			switch c.Name {
			case "analytic":
				analytic = c.Value
			case "measured":
				measured = c.Value
			}
		}
		if analytic < 1 || measured < 1 {
			t.Errorf("%s: factors below 1: %v %v", row.Label, analytic, measured)
		}
		// The model assumes only adjacent-row duplication; the measured
		// factor can exceed it (whole-batch matching) but should stay
		// within a small multiple.
		if measured < analytic*0.5 || measured > analytic*3 {
			t.Errorf("%s: measured %.2f far from analytic %.2f", row.Label, measured, analytic)
		}
	}
}

// TestPartialShape: partial dedup strictly beats exact dedup on
// shift-append features.
func TestPartialShape(t *testing.T) {
	res := runExp(t, "partial")
	exact := mustValue(t, res, "exact IKJT", "factor")
	partial := mustValue(t, res, "partial IKJT", "factor")
	if partial <= exact {
		t.Fatalf("partial factor %.2f should beat exact %.2f", partial, exact)
	}
}

// TestDownsampleShape: per-session downsampling keeps S near the full
// partition; per-sample halves it; dedup factors follow.
func TestDownsampleShape(t *testing.T) {
	res := runExp(t, "downsample")
	fullS := mustValue(t, res, "full partition", "S")
	sampleS := mustValue(t, res, "per-sample 50%", "S")
	sessionS := mustValue(t, res, "per-session 50%", "S")
	if sampleS > fullS*0.7 {
		t.Fatalf("per-sample S %.2f should collapse from %.2f", sampleS, fullS)
	}
	if sessionS < fullS*0.8 {
		t.Fatalf("per-session S %.2f should stay near %.2f", sessionS, fullS)
	}
	fSample := mustValue(t, res, "per-sample 50%", "dedup_f")
	fSession := mustValue(t, res, "per-session 50%", "dedup_f")
	if fSession <= fSample {
		t.Fatalf("per-session dedup factor %.2f should beat per-sample %.2f", fSession, fSample)
	}
}

// TestAccuracyShape: clustering must not hurt held-out accuracy, and in
// this synthetic setup it mildly helps (the paper's §6.2 observation; the
// production effect is larger because tail-value populations are much
// bigger there).
func TestAccuracyShape(t *testing.T) {
	res := runExp(t, "accuracy")
	interLL := mustValue(t, res, "interleaved (baseline)", "logloss")
	clustLL := mustValue(t, res, "clustered (O2)", "logloss")
	interAUC := mustValue(t, res, "interleaved (baseline)", "auc")
	clustAUC := mustValue(t, res, "clustered (O2)", "auc")
	if clustLL > interLL*1.02 {
		t.Fatalf("clustering hurt held-out logloss: %.4f vs %.4f", clustLL, interLL)
	}
	if clustAUC < interAUC-0.02 {
		t.Fatalf("clustering hurt held-out AUC: %.4f vs %.4f", clustAUC, interAUC)
	}
	if interAUC < 0.45 || interAUC > 1 {
		t.Fatalf("implausible AUC %.4f", interAUC)
	}
}

func TestResultString(t *testing.T) {
	res := &Result{
		ID: "x", Title: "demo",
		Rows:  []Row{{Label: "r", Values: []Cell{{Name: "v", Value: 1.5, Unit: "x"}}}},
		Notes: []string{"hello"},
	}
	s := res.String()
	for _, want := range []string{"demo", "r", "1.50", "hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}
