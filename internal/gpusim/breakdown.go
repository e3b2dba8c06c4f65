package gpusim

import "time"

// Breakdown is the Fig 8 iteration-latency decomposition: exposed time per
// category. EMB is lookup/pooling memory time, GEMM is dense math, A2A is
// exposed collective time, Other covers all-reduce, index-select, and
// miscellaneous kernels.
type Breakdown struct {
	EMB   time.Duration
	GEMM  time.Duration
	A2A   time.Duration
	Other time.Duration
}

// Total is the iteration latency.
func (b Breakdown) Total() time.Duration {
	return b.EMB + b.GEMM + b.A2A + b.Other
}

// Overlap models compute/communication overlap: a fraction of the raw
// collective time hides under concurrent compute, the rest is exposed
// (the paper reports exposed latency, §6.2). overlappable is the compute
// time the runtime can schedule concurrently with the collective.
func Overlap(comm, overlappable time.Duration, fraction float64) (exposed time.Duration) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	hidden := time.Duration(float64(overlappable) * fraction)
	if hidden >= comm {
		return 0
	}
	return comm - hidden
}
