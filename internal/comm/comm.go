// Package comm models the collective-communication substrate of a
// multi-GPU training cluster (paper §2.2): all-to-all for sparse data
// distribution and embedding exchange, all-reduce for dense gradients. It
// is an analytic α-β cost model over a two-level topology — NVLink within
// a node, a RoCE backend network across nodes — with exact per-GPU byte
// accounting. The numeric training computation itself is performed by the
// trainer package in-process; comm answers "how many bytes crossed which
// link and how long would that take", which is what the paper's A2A
// results (Fig 8) measure.
package comm

import (
	"fmt"
	"time"
)

// Topology describes the cluster interconnect.
type Topology struct {
	// Nodes is the number of training nodes.
	Nodes int
	// GPUsPerNode is the number of GPUs per node.
	GPUsPerNode int
	// NVLinkBandwidth is the per-GPU intra-node bandwidth in bytes/sec.
	NVLinkBandwidth float64
	// NVLinkLatency is the per-message intra-node latency (α term).
	NVLinkLatency time.Duration
	// RoCEBandwidth is the per-GPU NIC bandwidth in bytes/sec.
	RoCEBandwidth float64
	// RoCELatency is the per-message inter-node latency.
	RoCELatency time.Duration
}

// ZionEX returns the paper's trainer platform (§6.1): nodes of 8 A100s
// linked by NVLink (600 GB/s per GPU) with one 200 Gbps RoCE NIC per GPU
// on a dedicated backend network.
func ZionEX(nodes int) Topology {
	return Topology{
		Nodes:           nodes,
		GPUsPerNode:     8,
		NVLinkBandwidth: 600e9,
		NVLinkLatency:   1 * time.Microsecond,
		RoCEBandwidth:   25e9, // 200 Gbps
		RoCELatency:     2 * time.Microsecond,
	}
}

// Validate checks the topology is usable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.GPUsPerNode <= 0 {
		return fmt.Errorf("comm: topology needs nodes and gpus, got %d×%d", t.Nodes, t.GPUsPerNode)
	}
	if t.NVLinkBandwidth <= 0 || t.RoCEBandwidth <= 0 {
		return fmt.Errorf("comm: topology needs positive bandwidths")
	}
	return nil
}

// NumGPUs is the world size.
func (t Topology) NumGPUs() int { return t.Nodes * t.GPUsPerNode }

// NodeOf returns the node index hosting GPU g.
func (t Topology) NodeOf(g int) int { return g / t.GPUsPerNode }

// SameNode reports whether two ranks share NVLink.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// Stats describes one collective: bytes split by link class and the
// modelled completion time (the slowest rank's finish time, as collectives
// are synchronizing).
type Stats struct {
	IntraBytes int64 // bytes that crossed NVLink
	InterBytes int64 // bytes that crossed the RoCE backend
	Time       time.Duration
}

// AllToAll models a personalized all-to-all: send[g][p] is the bytes rank
// g sends to rank p. Self-sends are local copies and are not charged.
// Completion time is the slowest rank's max of (intra time, inter time),
// each modelled as α·messages + bytes/bandwidth.
func (t Topology) AllToAll(send [][]int64) (Stats, error) {
	n := t.NumGPUs()
	if len(send) != n {
		return Stats{}, fmt.Errorf("comm: all-to-all send matrix has %d rows, world is %d", len(send), n)
	}
	var st Stats
	var worst time.Duration
	for g := 0; g < n; g++ {
		if len(send[g]) != n {
			return Stats{}, fmt.Errorf("comm: all-to-all row %d has %d cols, world is %d", g, len(send[g]), n)
		}
		var intra, inter int64
		var intraMsgs, interMsgs int
		for p := 0; p < n; p++ {
			if p == g {
				continue
			}
			b := send[g][p]
			if b < 0 {
				return Stats{}, fmt.Errorf("comm: negative bytes %d from %d to %d", b, g, p)
			}
			if b == 0 {
				continue
			}
			if t.SameNode(g, p) {
				intra += b
				intraMsgs++
			} else {
				inter += b
				interMsgs++
			}
		}
		st.IntraBytes += intra
		st.InterBytes += inter
		intraTime := time.Duration(intraMsgs)*t.NVLinkLatency +
			time.Duration(float64(intra)/t.NVLinkBandwidth*float64(time.Second))
		interTime := time.Duration(interMsgs)*t.RoCELatency +
			time.Duration(float64(inter)/t.RoCEBandwidth*float64(time.Second))
		rank := intraTime
		if interTime > rank {
			rank = interTime
		}
		if rank > worst {
			worst = rank
		}
	}
	st.Time = worst
	return st, nil
}

// UniformAllToAll is the common case where every rank sends the same
// payload to every other rank (e.g. evenly sharded SDD): bytesPerPair is
// what one rank sends to one peer.
func (t Topology) UniformAllToAll(bytesPerPair int64) (Stats, error) {
	n := t.NumGPUs()
	send := make([][]int64, n)
	for g := range send {
		send[g] = make([]int64, n)
		for p := range send[g] {
			if p != g {
				send[g][p] = bytesPerPair
			}
		}
	}
	return t.AllToAll(send)
}

// AllReduce models a ring all-reduce of bytesPerGPU across the world: each
// rank moves 2·(n-1)/n of its buffer over its slowest link. For multi-node
// rings the bottleneck is the RoCE hop.
func (t Topology) AllReduce(bytesPerGPU int64) (Stats, error) {
	if bytesPerGPU < 0 {
		return Stats{}, fmt.Errorf("comm: negative all-reduce bytes %d", bytesPerGPU)
	}
	n := t.NumGPUs()
	if n == 1 || bytesPerGPU == 0 {
		return Stats{}, nil
	}
	moved := int64(float64(bytesPerGPU) * 2 * float64(n-1) / float64(n))
	bw := t.NVLinkBandwidth
	lat := t.NVLinkLatency
	var st Stats
	if t.Nodes > 1 {
		bw = t.RoCEBandwidth
		lat = t.RoCELatency
		// In a node-spanning ring, each rank's traffic crosses NVLink
		// except at node boundaries; attribute per-rank moved bytes by
		// the fraction of ring hops that cross nodes.
		interHops := int64(t.Nodes)
		totalHops := int64(n)
		st.InterBytes = moved * int64(n) * interHops / totalHops
		st.IntraBytes = moved*int64(n) - st.InterBytes
	} else {
		st.IntraBytes = moved * int64(n)
	}
	steps := 2 * (n - 1)
	st.Time = time.Duration(steps)*lat + time.Duration(float64(moved)/bw*float64(time.Second))
	return st, nil
}
