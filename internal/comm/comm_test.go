package comm

import (
	"testing"
)

func TestZionEXShape(t *testing.T) {
	top := ZionEX(6)
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if top.NumGPUs() != 48 {
		t.Fatalf("NumGPUs = %d want 48", top.NumGPUs())
	}
	if top.NodeOf(0) != 0 || top.NodeOf(7) != 0 || top.NodeOf(8) != 1 {
		t.Fatal("NodeOf wrong")
	}
	if !top.SameNode(0, 7) || top.SameNode(7, 8) {
		t.Fatal("SameNode wrong")
	}
}

func TestValidate(t *testing.T) {
	bad := []Topology{
		{},
		{Nodes: 1},
		{Nodes: 1, GPUsPerNode: 8},
		{Nodes: 1, GPUsPerNode: 8, NVLinkBandwidth: 1},
	}
	for i, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestAllToAllByteAccounting(t *testing.T) {
	top := ZionEX(2) // 16 GPUs
	st, err := top.UniformAllToAll(1000)
	if err != nil {
		t.Fatal(err)
	}
	// Each of 16 ranks sends 1000B to 15 peers: 7 intra, 8 inter.
	if st.IntraBytes != 16*7*1000 {
		t.Fatalf("IntraBytes = %d want %d", st.IntraBytes, 16*7*1000)
	}
	if st.InterBytes != 16*8*1000 {
		t.Fatalf("InterBytes = %d want %d", st.InterBytes, 16*8*1000)
	}
	if st.Time <= 0 {
		t.Fatal("expected positive time")
	}
}

func TestAllToAllSelfSendFree(t *testing.T) {
	top := ZionEX(1)
	n := top.NumGPUs()
	send := make([][]int64, n)
	for g := range send {
		send[g] = make([]int64, n)
		send[g][g] = 1 << 30 // huge self-send must be ignored
	}
	st, err := top.AllToAll(send)
	if err != nil {
		t.Fatal(err)
	}
	if (st.IntraBytes+st.InterBytes) != 0 || st.Time != 0 {
		t.Fatalf("self-sends should be free: %+v", st)
	}
}

func TestAllToAllErrors(t *testing.T) {
	top := ZionEX(1)
	if _, err := top.AllToAll(make([][]int64, 3)); err == nil {
		t.Fatal("expected error for wrong matrix size")
	}
	n := top.NumGPUs()
	send := make([][]int64, n)
	for g := range send {
		send[g] = make([]int64, n)
	}
	send[0][1] = -5
	if _, err := top.AllToAll(send); err == nil {
		t.Fatal("expected error for negative bytes")
	}
	send[0] = send[0][:2]
	if _, err := top.AllToAll(send); err == nil {
		t.Fatal("expected error for short row")
	}
}

// TestHalvingBytesHalvesA2ATime is the mechanism behind the paper's Fig 8
// "RecD halves exposed A2A": when IKJTs halve SDD bytes, modelled A2A time
// drops near-proportionally (the α term keeps it from exactly halving).
func TestHalvingBytesHalvesA2ATime(t *testing.T) {
	top := ZionEX(6)
	big, err := top.UniformAllToAll(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	small, err := top.UniformAllToAll(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(big.Time) / float64(small.Time)
	if ratio < 1.8 || ratio > 2.05 {
		t.Fatalf("time ratio %.3f not ≈2 for halved bytes", ratio)
	}
}

func TestInterNodeDominates(t *testing.T) {
	// Same payload, single node vs multi node: the multi-node collective
	// must be slower because RoCE is far slower than NVLink — the reason
	// single-node training exposes less communication (paper §6.2).
	one, err := ZionEX(1).UniformAllToAll(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	six, err := ZionEX(6).UniformAllToAll(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if six.Time <= one.Time {
		t.Fatalf("multi-node A2A should be slower: %v vs %v", six.Time, one.Time)
	}
}

func TestAllReduce(t *testing.T) {
	top := ZionEX(2)
	st, err := top.AllReduce(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if (st.IntraBytes+st.InterBytes) == 0 || st.Time == 0 {
		t.Fatalf("all-reduce accounting empty: %+v", st)
	}
	// Zero bytes and single GPU are free.
	st, err = top.AllReduce(0)
	if err != nil || st.Time != 0 {
		t.Fatalf("zero all-reduce: %+v, %v", st, err)
	}
	single := Topology{Nodes: 1, GPUsPerNode: 1, NVLinkBandwidth: 1e9, RoCEBandwidth: 1e9}
	st, err = single.AllReduce(1 << 20)
	if err != nil || st.Time != 0 {
		t.Fatalf("single-gpu all-reduce: %+v, %v", st, err)
	}
	if _, err := top.AllReduce(-1); err == nil {
		t.Fatal("expected error for negative bytes")
	}
}
