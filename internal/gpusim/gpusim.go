// Package gpusim is an analytic GPU cost model standing in for the
// paper's A100 trainers (DESIGN.md substitution table). Kernels are timed
// with a roofline: a kernel takes max(flops/peak_flops, bytes/hbm_bw),
// plus a fixed launch overhead. The trainer package counts the exact
// flops, lookup counts, and activation bytes its (real, numeric)
// computation performs, and gpusim converts those counts into the
// iteration-latency and memory-utilization numbers the paper reports
// (Fig 8 breakdown, Table 2 memory/FLOPs efficiency).
package gpusim

import (
	"fmt"
	"time"
)

// DeviceSpec describes one accelerator.
type DeviceSpec struct {
	Name string
	// PeakFLOPs is the dense-math peak in flop/s (TF32-class for A100).
	PeakFLOPs float64
	// GEMMEfficiency derates PeakFLOPs for realistic GEMM shapes.
	GEMMEfficiency float64
	// HBMBandwidth is memory bandwidth in bytes/s.
	HBMBandwidth float64
	// HBMCapacity is device memory in bytes.
	HBMCapacity int64
	// KernelLaunch is the fixed per-kernel overhead.
	KernelLaunch time.Duration
}

// A100 returns an NVIDIA A100-40GB-like spec (ZionEX nodes carry 8 of
// these with 320 GB total HBM and 12.4 TB/s aggregate bandwidth, §6.1 —
// i.e. 40 GB and 1.55 TB/s per GPU).
func A100() DeviceSpec {
	return DeviceSpec{
		Name:           "A100-40GB",
		PeakFLOPs:      156e12, // TF32 with sparsity off
		GEMMEfficiency: 0.55,
		HBMBandwidth:   1.55e12,
		HBMCapacity:    40 << 30,
		KernelLaunch:   4 * time.Microsecond,
	}
}

// Validate checks the spec is usable.
func (d DeviceSpec) Validate() error {
	if d.PeakFLOPs <= 0 || d.HBMBandwidth <= 0 || d.HBMCapacity <= 0 {
		return fmt.Errorf("gpusim: spec %q has non-positive limits", d.Name)
	}
	if d.GEMMEfficiency <= 0 || d.GEMMEfficiency > 1 {
		return fmt.Errorf("gpusim: spec %q efficiency %v out of (0,1]", d.Name, d.GEMMEfficiency)
	}
	return nil
}

// roofline returns max(compute time, memory time) + launch overhead.
func (d DeviceSpec) roofline(flops float64, bytes float64) time.Duration {
	ct := flops / (d.PeakFLOPs * d.GEMMEfficiency)
	mt := bytes / d.HBMBandwidth
	t := ct
	if mt > t {
		t = mt
	}
	return d.KernelLaunch + time.Duration(t*float64(time.Second))
}

// FLOPsTime models a compute-bound kernel of the given flop count.
func (d DeviceSpec) FLOPsTime(flops float64) time.Duration {
	return d.roofline(flops, 0)
}

// MemBoundTime models a bandwidth-bound kernel moving the given bytes
// (index-select, copies, element-wise ops).
func (d DeviceSpec) MemBoundTime(bytes int64) time.Duration {
	return d.roofline(0, float64(bytes))
}

// MemTracker accounts device memory against capacity. The trainer
// allocates its static, input and activation buffers through it to
// reproduce Table 2's memory-utilization rows; nothing is freed within an
// iteration, so usage only grows and its final value is the peak.
type MemTracker struct {
	spec DeviceSpec
	used int64
}

// NewMemTracker builds a tracker for one device.
func NewMemTracker(spec DeviceSpec) *MemTracker {
	return &MemTracker{spec: spec}
}

// Alloc reserves bytes, failing when the device would exceed capacity —
// the paper's baseline RM1 sits at 99.9% of HBM, so exceeding capacity is
// a real failure mode the simulation must expose.
func (m *MemTracker) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("gpusim: negative alloc %d", bytes)
	}
	if m.used+bytes > m.spec.HBMCapacity {
		return fmt.Errorf("gpusim: OOM on %s: %d used + %d requested > %d capacity",
			m.spec.Name, m.used, bytes, m.spec.HBMCapacity)
	}
	m.used += bytes
	return nil
}

// Peak returns the high-water mark in bytes.
func (m *MemTracker) Peak() int64 { return m.used }
