package scribe

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/datagen"
)

func sessionLogStream(t *testing.T, sessions int) []Message {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 8, Item: 2, Dense: 4, SeqLen: 60, Seed: 1,
	})
	g := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions:              sessions,
		MeanSamplesPerSession: 12,
		Seed:                  2,
	})
	samples := g.GeneratePartition()
	msgs := make([]Message, len(samples))
	for i, s := range samples {
		msgs[i] = Message{RequestID: s.RequestID, SessionID: s.SessionID, Payload: s.AppendTo(nil)}
	}
	return msgs
}

func TestClusterRoundTrip(t *testing.T) {
	msgs := sessionLogStream(t, 50)
	c, err := New(Config{Shards: 4, Policy: ShardBySession, BlockBytes: 32 << 10})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, m := range msgs {
		if err := c.Append(m); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got := map[int64][]byte{}
	if err := c.Consume(func(m Message) error {
		got[m.RequestID] = m.Payload
		return nil
	}); err != nil {
		t.Fatalf("Consume: %v", err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("consumed %d messages, want %d", len(got), len(msgs))
	}
	for _, m := range msgs {
		if !bytes.Equal(got[m.RequestID], m.Payload) {
			t.Fatalf("payload mismatch for request %d", m.RequestID)
		}
	}
}

// TestSessionShardingImprovesCompression reproduces the §6.1 Scribe result:
// sharding by session ID improves the black-box compression ratio over
// request-random sharding (paper: 1.50x → 2.25x).
func TestSessionShardingImprovesCompression(t *testing.T) {
	msgs := sessionLogStream(t, 150)
	ratio := func(policy ShardPolicy) float64 {
		c, err := New(Config{Shards: 8, Policy: policy, BlockBytes: 64 << 10})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, m := range msgs {
			if err := c.Append(m); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		return c.Stats().CompressionRatio()
	}
	random := ratio(ShardByRequest)
	session := ratio(ShardBySession)
	t.Logf("compression: request-sharded %.2fx, session-sharded %.2fx", random, session)
	if session <= random*1.1 {
		t.Fatalf("session sharding ratio %.3f not meaningfully above random %.3f", session, random)
	}
}

func TestShardLoadsReasonablyBalanced(t *testing.T) {
	c, err := New(Config{Shards: 8, Policy: ShardByRequest})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80000; i++ {
		if err := c.Append(Message{RequestID: int64(i)*2654435761 + 12345, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
	}
	loads := c.ShardLoads()
	var min, max int64 = 1 << 62, 0
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if min == 0 {
		t.Fatalf("some shard received nothing: %v", loads)
	}
	if float64(max)/float64(min) > 4 {
		t.Fatalf("shard imbalance %v: max/min = %.1f", loads, float64(max)/float64(min))
	}
}

func TestSessionShardingKeepsSessionTogether(t *testing.T) {
	c, err := New(Config{Shards: 16, Policy: ShardBySession})
	if err != nil {
		t.Fatal(err)
	}
	// All messages of one session must land on one shard.
	for req := 0; req < 100; req++ {
		if err := c.Append(Message{RequestID: int64(req), SessionID: 777, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	loads := c.ShardLoads()
	nonZero := 0
	for _, l := range loads {
		if l > 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("session spread across %d shards, want 1", nonZero)
	}
}

func TestStatsAndByteCounters(t *testing.T) {
	msgs := sessionLogStream(t, 20)
	c, err := New(Config{Shards: 2, Policy: ShardBySession, BlockBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var rawTotal int64
	for _, m := range msgs {
		rawTotal += int64(len(m.Payload) + 20)
		if err := c.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.RawBytes != rawTotal {
		t.Errorf("RawBytes = %d, want %d", st.RawBytes, rawTotal)
	}
	if st.CompressedBytes <= 0 || st.CompressedBytes >= st.RawBytes {
		t.Errorf("CompressedBytes = %d (raw %d), want compression", st.CompressedBytes, st.RawBytes)
	}
	if c.Bytes.RX.Value() != rawTotal {
		t.Errorf("RX = %d, want %d", c.Bytes.RX.Value(), rawTotal)
	}
	// Consume should account TX as compressed bytes.
	if err := c.Consume(func(Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.Bytes.TX.Value(); got != st.CompressedBytes {
		t.Errorf("TX = %d, want %d", got, st.CompressedBytes)
	}
	if st.Messages != int64(len(msgs)) {
		t.Errorf("Messages = %d, want %d", st.Messages, len(msgs))
	}
}

func TestConsumeCallbackError(t *testing.T) {
	c, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(Message{RequestID: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("stop")
	if err := c.Consume(func(Message) error { return wantErr }); err != wantErr {
		t.Fatalf("Consume error = %v, want %v", err, wantErr)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0}); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestRingDeterministicAndSorted(t *testing.T) {
	r := newHashRing(4)
	if !sort.SliceIsSorted(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash }) {
		t.Fatal("ring points not sorted")
	}
	for key := int64(0); key < 1000; key++ {
		a, b := r.shardFor(key), r.shardFor(key)
		if a != b {
			t.Fatalf("ring not deterministic for key %d", key)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("shard %d out of range", a)
		}
	}
}
