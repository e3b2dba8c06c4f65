package scribe

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"repro/internal/metrics"
)

// ShardPolicy selects the message attribute used as the shard key.
type ShardPolicy int

const (
	// ShardByRequest is the baseline: load-balance by request ID, which
	// scatters a session's messages across shards (paper: "the default
	// hashing configuration distributes logs for each session randomly
	// across shards").
	ShardByRequest ShardPolicy = iota
	// ShardBySession is RecD O1: use the session ID as the shard key,
	// improving the compressibility of data within each shard.
	ShardBySession
)

// String implements fmt.Stringer.
func (p ShardPolicy) String() string {
	switch p {
	case ShardByRequest:
		return "request"
	case ShardBySession:
		return "session"
	default:
		return fmt.Sprintf("ShardPolicy(%d)", int(p))
	}
}

// Message is one raw inference log record.
type Message struct {
	RequestID int64
	SessionID int64
	Payload   []byte
}

// Config parameterizes a Scribe cluster.
type Config struct {
	// Shards is the number of physical storage nodes.
	Shards int
	// BlockBytes is the buffered bytes threshold at which a shard
	// compresses and seals a block. Defaults to 256 KiB.
	BlockBytes int
	// Policy selects the shard key.
	Policy ShardPolicy
}

// Cluster is an in-process Scribe stand-in: a set of shards fed through a
// consistent-hash ring, each buffering and block-compressing messages.
type Cluster struct {
	cfg    Config
	ring   *hashRing
	shards []*shard

	// Bytes tracks cluster-wide RX (uncompressed appended bytes) and TX
	// (compressed bytes served to ETL consumers).
	Bytes metrics.ByteCounter
}

type shard struct {
	mu      sync.Mutex
	buf     bytes.Buffer // pending uncompressed block
	pending int          // messages in buf
	blocks  [][]byte     // sealed compressed blocks
	limit   int

	rawBytes        int64
	compressedBytes int64
	messages        int64
}

// New creates a Scribe cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("scribe: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 256 << 10
	}
	c := &Cluster{cfg: cfg, ring: newHashRing(cfg.Shards)}
	if err := c.ring.validate(cfg.Shards); err != nil {
		return nil, err
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = &shard{limit: cfg.BlockBytes}
	}
	return c, nil
}

// Append routes a message to its shard and buffers it.
func (c *Cluster) Append(m Message) error {
	key := m.RequestID
	if c.cfg.Policy == ShardBySession {
		key = m.SessionID
	}
	sh := c.shards[c.ring.shardFor(key)]
	n, err := sh.append(m)
	if err != nil {
		return err
	}
	c.Bytes.RX.Add(int64(n))
	return nil
}

func (s *shard) append(m Message) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var hdr [20]byte
	putI64(hdr[0:], m.RequestID)
	putI64(hdr[8:], m.SessionID)
	putU32(hdr[16:], uint32(len(m.Payload)))
	s.buf.Write(hdr[:])
	s.buf.Write(m.Payload)
	s.pending++
	s.messages++
	n := len(hdr) + len(m.Payload)
	s.rawBytes += int64(n)
	if s.buf.Len() >= s.limit {
		if err := s.sealLocked(); err != nil {
			return n, err
		}
	}
	return n, nil
}

func putI64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

func getI64(b []byte) int64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u |= uint64(b[i]) << (8 * i)
	}
	return int64(u)
}

func putU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU32(b []byte) uint32 {
	var u uint32
	for i := 0; i < 4; i++ {
		u |= uint32(b[i]) << (8 * i)
	}
	return u
}

func (s *shard) sealLocked() error {
	if s.buf.Len() == 0 {
		return nil
	}
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.DefaultCompression)
	if err != nil {
		return fmt.Errorf("scribe: flate init: %w", err)
	}
	if _, err := w.Write(s.buf.Bytes()); err != nil {
		return fmt.Errorf("scribe: compress block: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("scribe: close block: %w", err)
	}
	s.blocks = append(s.blocks, append([]byte(nil), out.Bytes()...))
	s.compressedBytes += int64(out.Len())
	s.buf.Reset()
	s.pending = 0
	return nil
}

// Flush seals all shards' pending blocks.
func (c *Cluster) Flush() error {
	for i, sh := range c.shards {
		sh.mu.Lock()
		err := sh.sealLocked()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("scribe: shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats summarizes cluster-wide compression.
type Stats struct {
	Shards          int
	Messages        int64
	RawBytes        int64
	CompressedBytes int64
}

// CompressionRatio is raw over compressed bytes (1 if nothing stored).
func (s Stats) CompressionRatio() float64 {
	if s.CompressedBytes == 0 {
		return 1
	}
	return float64(s.RawBytes) / float64(s.CompressedBytes)
}

// Stats returns cluster-wide statistics. Call Flush first for exact
// numbers.
func (c *Cluster) Stats() Stats {
	st := Stats{Shards: len(c.shards)}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Messages += sh.messages
		st.RawBytes += sh.rawBytes
		st.CompressedBytes += sh.compressedBytes
		sh.mu.Unlock()
	}
	return st
}

// ShardLoads returns per-shard message counts (for balance checks).
func (c *Cluster) ShardLoads() []int64 {
	out := make([]int64, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.Lock()
		out[i] = sh.messages
		sh.mu.Unlock()
	}
	return out
}

// Consume decompresses and yields every stored message (ETL ingest). The
// cluster's TX counter advances by the compressed bytes actually moved,
// which is the network traffic downstream ETL jobs pay for (paper §4.1).
func (c *Cluster) Consume(fn func(Message) error) error {
	for i, sh := range c.shards {
		sh.mu.Lock()
		if err := sh.sealLocked(); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("scribe: shard %d: %w", i, err)
		}
		blocks := sh.blocks
		sh.mu.Unlock()
		for _, blk := range blocks {
			c.Bytes.TX.Add(int64(len(blk)))
			r := flate.NewReader(bytes.NewReader(blk))
			raw, err := io.ReadAll(r)
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("scribe: shard %d decompress: %w", i, err)
			}
			for off := 0; off < len(raw); {
				if off+20 > len(raw) {
					return fmt.Errorf("scribe: shard %d truncated block", i)
				}
				m := Message{
					RequestID: getI64(raw[off:]),
					SessionID: getI64(raw[off+8:]),
				}
				n := int(getU32(raw[off+16:]))
				off += 20
				if off+n > len(raw) {
					return fmt.Errorf("scribe: shard %d truncated payload", i)
				}
				m.Payload = append([]byte(nil), raw[off:off+n]...)
				off += n
				if err := fn(m); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
