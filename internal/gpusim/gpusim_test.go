package gpusim

import (
	"testing"
	"time"
)

func TestA100Valid(t *testing.T) {
	if err := A100().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []DeviceSpec{
		{},
		{PeakFLOPs: 1, HBMBandwidth: 1, HBMCapacity: 1, GEMMEfficiency: 0},
		{PeakFLOPs: 1, HBMBandwidth: 1, HBMCapacity: 1, GEMMEfficiency: 1.5},
		{PeakFLOPs: 1, HBMBandwidth: 1, HBMCapacity: 0, GEMMEfficiency: 0.5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestGEMMTimeScalesWithWork: dense GEMM time is FLOPsTime of 2MKN flops,
// compute-bound, so 4x the flops is close to 4x the time.
func TestGEMMTimeScalesWithWork(t *testing.T) {
	d := A100()
	gemm := func(m, n, k float64) time.Duration { return d.FLOPsTime(2 * m * n * k) }
	small := gemm(1024, 1024, 1024)
	big := gemm(2048, 2048, 1024)
	if big <= small {
		t.Fatalf("bigger GEMM not slower: %v vs %v", big, small)
	}
	ratio := float64(big-d.KernelLaunch) / float64(small-d.KernelLaunch)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("compute-bound GEMM ratio %.2f not ≈4", ratio)
	}
}

func TestRooflineMemoryBound(t *testing.T) {
	d := A100()
	// A bandwidth-bound kernel's time tracks bytes over HBM bandwidth.
	bytes := int64(8 << 20)
	got := d.MemBoundTime(bytes)
	want := d.KernelLaunch + time.Duration(float64(bytes)/d.HBMBandwidth*float64(time.Second))
	if got < want*9/10 || got > want*11/10 {
		t.Fatalf("memory-bound kernel = %v want ≈%v", got, want)
	}
}

// TestEmbLookupLinearInLookups: embedding gathers are memory-bound, one row
// read and one output write per lookup, so their time is linear in lookups.
func TestEmbLookupLinearInLookups(t *testing.T) {
	d := A100()
	lookup := func(lookups, dim int64) time.Duration { return d.MemBoundTime(lookups * dim * 4 * 2) }
	t1 := lookup(1<<20, 128)
	t2 := lookup(1<<21, 128)
	ratio := float64(t2-d.KernelLaunch) / float64(t1-d.KernelLaunch)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("lookup time ratio %.2f not ≈2", ratio)
	}
	// Halving lookups via dedup halves EMB time — the paper's O5 claim.
	if t2 <= t1 {
		t.Fatal("more lookups should cost more")
	}
}

func TestMemTracker(t *testing.T) {
	m := NewMemTracker(A100())
	if err := m.Alloc(10 << 30); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(20 << 30); err != nil {
		t.Fatal(err)
	}
	if m.Peak() != 30<<30 {
		t.Fatalf("peak=%d", m.Peak())
	}
	// Exceeding capacity fails and allocates nothing.
	if err := m.Alloc(11 << 30); err == nil {
		t.Fatal("expected OOM")
	}
	if err := m.Alloc(-1); err == nil {
		t.Fatal("expected error for negative alloc")
	}
	if m.Peak() != 30<<30 {
		t.Fatalf("peak after refused allocs = %d", m.Peak())
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{EMB: 1 * time.Millisecond, GEMM: 2 * time.Millisecond,
		A2A: 3 * time.Millisecond, Other: 4 * time.Millisecond}
	if b.Total() != 10*time.Millisecond {
		t.Fatalf("Total = %v", b.Total())
	}
}

func TestOverlap(t *testing.T) {
	// Fully hidden.
	if got := Overlap(time.Millisecond, 10*time.Millisecond, 1); got != 0 {
		t.Fatalf("fully hidden comm exposed %v", got)
	}
	// Partially hidden.
	if got := Overlap(10*time.Millisecond, 10*time.Millisecond, 0.5); got != 5*time.Millisecond {
		t.Fatalf("half hidden = %v", got)
	}
	// No overlap.
	if got := Overlap(time.Millisecond, time.Hour, 0); got != time.Millisecond {
		t.Fatalf("no overlap = %v", got)
	}
	// Clamping.
	if got := Overlap(time.Millisecond, time.Hour, 5); got != 0 {
		t.Fatal("fraction should clamp to 1")
	}
	if got := Overlap(time.Millisecond, time.Hour, -3); got != time.Millisecond {
		t.Fatal("fraction should clamp to 0")
	}
}
