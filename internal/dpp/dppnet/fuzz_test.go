package dppnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/reader"
)

// Fuzz coverage for the two stats codecs the PR-5 scheduler fields
// extended: the binary session-stats frame (reader.Stats + cache
// counters + scheduler block) and the JSON svcstats frame. The
// adversarial model matches the batch-frame fuzzer: a malicious or
// corrupt server must never panic the client, every accepted decode must
// round-trip, and forged counts/overflow are rejected, not wrapped.

func sessionStatsSeed(st dpp.SessionStats) []byte {
	var buf bytes.Buffer
	if err := encodeSessionStats(&buf, st); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeSessionStats: decodeSessionStats on arbitrary bytes either
// fails cleanly or yields a value whose re-encoding decodes back equal
// (the codec is a bijection on its accepted set), with every counter
// non-negative and the worker count within the wire cap.
func FuzzDecodeSessionStats(f *testing.F) {
	full := dpp.SessionStats{
		Reader: reader.Stats{
			FillTime: 123 * time.Millisecond, ConvertTime: 45 * time.Millisecond,
			ProcessTime: 6 * time.Millisecond, ReadBytes: 1 << 20, SentBytes: 1 << 21,
			RowsDecoded: 4096, BatchesProduced: 16, ConvertValues: 99999, ProcessOps: 1234,
		},
		Cache: dpp.SessionCacheStats{Hits: 7, Misses: 3},
		Scheduler: dpp.SchedulerStats{
			Workers: 5, ScaleUps: 4, ScaleDowns: 2,
			WorkerStall: 250 * time.Millisecond, ConsumerStall: 80 * time.Millisecond,
		},
	}
	f.Add(sessionStatsSeed(full))
	f.Add(sessionStatsSeed(dpp.SessionStats{Scheduler: dpp.SchedulerStats{Workers: 1}}))
	// Truncations exercise every partial-field error path.
	whole := sessionStatsSeed(full)
	for _, cut := range []int{1, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	// Forged tails: plausible reader stats followed by hostile varints.
	var forged bytes.Buffer
	if err := (reader.Stats{}).Encode(&forged); err != nil {
		f.Fatal(err)
	}
	overflow := binary.AppendUvarint(nil, 1<<63)
	f.Add(append(append([]byte(nil), forged.Bytes()...), bytes.Repeat(overflow, 7)...))
	hugeWorkers := forged.Bytes()
	hugeWorkers = binary.AppendUvarint(hugeWorkers, 0) // hits
	hugeWorkers = binary.AppendUvarint(hugeWorkers, 0) // misses
	hugeWorkers = binary.AppendUvarint(hugeWorkers, maxWireWorkers+1)
	f.Add(hugeWorkers)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSessionStats(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.Cache.Hits < 0 || st.Cache.Misses < 0 ||
			st.Scheduler.Workers < 0 || st.Scheduler.Workers > maxWireWorkers ||
			st.Scheduler.ScaleUps < 0 || st.Scheduler.ScaleDowns < 0 ||
			st.Scheduler.WorkerStall < 0 || st.Scheduler.ConsumerStall < 0 {
			t.Fatalf("accepted stats with out-of-range fields: %+v", st)
		}
		var re bytes.Buffer
		if err := encodeSessionStats(&re, st); err != nil {
			t.Fatalf("re-encoding accepted stats: %v", err)
		}
		back, err := decodeSessionStats(bytes.NewReader(re.Bytes()))
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back != st {
			t.Fatalf("round trip changed stats:\n got %+v\nwant %+v", back, st)
		}
	})
}

// FuzzDecodeServiceStats: the svcstats JSON decoder on arbitrary bytes
// either fails cleanly or yields service stats with no negative counter
// — a forged statsz reply cannot poison downstream rate math.
func FuzzDecodeServiceStats(f *testing.F) {
	f.Add([]byte(`{"SessionsOpened":3,"ActiveSessions":1,"BatchesServed":42,` +
		`"Cache":{"Hits":5,"Misses":2,"Evictions":3,"GhostHits":2,"Invalidations":1,"Entries":2,"Bytes":1024},` +
		`"Scheduler":{"ScaleUps":4,"ScaleDowns":1}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"BatchesServed":-1}`))
	f.Add([]byte(`{"Scheduler":{"ScaleUps":-9}}`))
	f.Add([]byte(`{"Cache":{"Invalidations":-5}}`))
	f.Add([]byte(`{"Cache":{"GhostHits":-1}}`))
	f.Add([]byte(`{"BatchesServed":999999999999999999999999}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeServiceStats(data)
		if err != nil {
			return
		}
		if st.SessionsOpened < 0 || st.ActiveSessions < 0 || st.BatchesServed < 0 ||
			st.Cache.Hits < 0 || st.Cache.Misses < 0 || st.Cache.Evictions < 0 ||
			st.Cache.GhostHits < 0 || st.Cache.Invalidations < 0 ||
			st.Cache.Entries < 0 || st.Cache.Bytes < 0 ||
			st.Scheduler.ScaleUps < 0 || st.Scheduler.ScaleDowns < 0 {
			t.Fatalf("accepted service stats with negative fields: %+v", st)
		}
	})
}

// TestDecodeServiceStatsRefusesNegativeCounters: every counter of a
// statsz reply is exported as a monotone series, so a forged frame with
// any of them negative is refused — each cache counter by name, the two
// (Invalidations, GhostHits) the validation once missed included.
func TestDecodeServiceStatsRefusesNegativeCounters(t *testing.T) {
	for _, forged := range []string{
		`{"SessionsOpened":-1}`, `{"ActiveSessions":-1}`, `{"BatchesServed":-1}`, `{"SessionErrors":-1}`,
		`{"Cache":{"Hits":-1}}`, `{"Cache":{"Misses":-1}}`, `{"Cache":{"Evictions":-1}}`,
		`{"Cache":{"Invalidations":-5}}`, `{"Cache":{"GhostHits":-5}}`,
		`{"Cache":{"Entries":-1}}`, `{"Cache":{"Bytes":-1}}`,
		`{"Scheduler":{"ScaleUps":-1}}`, `{"Scheduler":{"ScaleDowns":-1}}`,
		`{"Scheduler":{"WorkerStall":-1}}`, `{"Scheduler":{"ConsumerStall":-1}}`,
	} {
		if st, err := decodeServiceStats([]byte(forged)); err == nil {
			t.Errorf("%s accepted as %+v", forged, st.Cache)
		}
	}
	st, err := decodeServiceStats([]byte(`{"Cache":{"Evictions":9,"GhostHits":7,"Invalidations":2}}`))
	if err != nil || st.Cache.Evictions != 9 || st.Cache.GhostHits != 7 || st.Cache.Invalidations != 2 {
		t.Fatalf("well-formed stats: %+v, %v", st.Cache, err)
	}
}

// FuzzDecodeResumeHandshake: the v4 open frame is the resume surface —
// an attacker-supplied offset or token rides in before any session
// state exists. decodeOpenRequest on arbitrary bytes either fails
// cleanly or yields a request within the handshake bounds (offset in
// [0, maxResumeOffset], token no longer than a minted one can be) whose
// re-marshalled form decodes back equal.
func FuzzDecodeResumeHandshake(f *testing.F) {
	seed := func(req openRequest) []byte {
		payload, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return payload
	}
	ws, err := encodeSpec(dpp.Spec{Spec: misalignedSpec(), ShareScans: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(openRequest{Kind: kindSession, Window: 4, Spec: ws}))
	f.Add(seed(openRequest{
		Kind: kindSession, Window: 8, Spec: ws, FileUnits: true,
		Resumable: true, Offset: 1234, Token: "00112233445566778899aabbccddeeff",
	}))
	f.Add(seed(openRequest{Kind: kindTablez}))
	f.Add(seed(openRequest{Kind: kindSession, Window: 4, Spec: ws, Offset: maxResumeOffset}))
	// Hostile handshakes: negative and overflow offsets, a token past the
	// mint bound, and plain garbage.
	f.Add([]byte(`{"kind":"session","offset":-1}`))
	f.Add([]byte(`{"kind":"session","offset":1099511627777}`))
	f.Add([]byte(`{"kind":"session","token":"` + strings.Repeat("a", maxResumeTokenLen+1) + `"}`))
	f.Add([]byte(`{"kind":"session","offset":999999999999999999999999}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeOpenRequest(data)
		if err != nil {
			return
		}
		if req.Offset < 0 || req.Offset > maxResumeOffset {
			t.Fatalf("accepted out-of-range offset %d", req.Offset)
		}
		if len(req.Token) > maxResumeTokenLen {
			t.Fatalf("accepted %d-byte token", len(req.Token))
		}
		// JSON field matching is case-insensitive, so the accepted set is
		// not a bijection — but the canonical re-marshalled form must be a
		// fixed point: decoding it and marshalling again changes nothing.
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshalling accepted handshake: %v", err)
		}
		back, err := decodeOpenRequest(re)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		re2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshalling round-tripped handshake: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical handshake form is not a fixed point:\n got %s\nwant %s", re2, re)
		}
	})
}

// FuzzDecodeAuthHandshake: the v5 open frame carries the tenant token —
// attacker-controlled bytes that reach the front door's authenticator
// before any session state exists. decodeOpenRequest on arbitrary bytes
// either fails cleanly or yields a request whose auth token is within
// the decode bound (so the authenticator never sees an oversized
// credential), and the canonical re-marshalled form is a fixed point.
func FuzzDecodeAuthHandshake(f *testing.F) {
	seed := func(req openRequest) []byte {
		payload, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return payload
	}
	ws, err := encodeSpec(dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(openRequest{Kind: kindSession, Window: 4, Spec: ws, AuthToken: "team-a-secret"}))
	f.Add(seed(openRequest{
		Kind: kindSession, Window: 8, Spec: ws, Resumable: true,
		Offset: 7, Token: "00112233445566778899aabbccddeeff", AuthToken: "team-b-secret",
	}))
	f.Add(seed(openRequest{Kind: kindSession, Window: 4, Spec: ws, AuthToken: strings.Repeat("x", maxAuthTokenLen)}))
	// Hostile handshakes: a token past the decode bound, tokens that are
	// JSON metacharacters, and spoofing attempts via unknown fields (a
	// client cannot name its tenant — only present a credential).
	f.Add([]byte(`{"kind":"session","auth_token":"` + strings.Repeat("a", maxAuthTokenLen+1) + `"}`))
	f.Add([]byte(`{"kind":"session","auth_token":"\"}{\\"}`))
	f.Add([]byte(`{"kind":"session","auth_token":"tok","tenant":"admin"}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeOpenRequest(data)
		if err != nil {
			return
		}
		if len(req.AuthToken) > maxAuthTokenLen {
			t.Fatalf("accepted %d-byte auth token", len(req.AuthToken))
		}
		re, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-marshalling accepted handshake: %v", err)
		}
		back, err := decodeOpenRequest(re)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back.AuthToken != req.AuthToken {
			t.Fatalf("auth token changed across round trip: %q != %q", back.AuthToken, req.AuthToken)
		}
		re2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshalling round-tripped handshake: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical handshake form is not a fixed point:\n got %s\nwant %s", re2, re)
		}
	})
}

// FuzzDecodeTablez: the tablez frame seeds a trainer's entire view of
// the table — model sizing, file plans, the spec it opens sessions with
// — so a malicious server must never panic the client, and negative
// counts, non-finite S, negative partition hours, and specless payloads
// are rejected rather than reaching sizing math. Accepted decodes must
// survive a re-encode/decode round trip.
func FuzzDecodeTablez(f *testing.F) {
	env := newTestEnv(f, 10)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		f.Fatal(err)
	}
	full, err := encodeTableMeta(&TableMeta{
		Table: "tbl", DenseWidth: 4, TrainRows: 4096, S: 5.5,
		Spec:       dpp.Spec{Spec: alignedSpec(), ShareScans: true},
		Partitions: []TablePartition{{Hour: 0, Files: files}, {Hour: 3600, Files: files[:1]}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	minimal, err := encodeTableMeta(&TableMeta{Spec: dpp.Spec{Spec: alignedSpec()}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(minimal)
	for _, cut := range []int{1, len(full) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	// Forged metadata a well-behaved server cannot emit.
	f.Add([]byte(`{"table":"tbl","dense_width":-1,"spec":{}}`))
	f.Add([]byte(`{"table":"tbl","train_rows":-5,"spec":{}}`))
	f.Add([]byte(`{"table":"tbl","s":-0.5,"spec":{}}`))
	f.Add([]byte(`{"table":"tbl","spec":{},"partitions":[{"hour":-1}]}`))
	f.Add([]byte(`{"table":"tbl"}`)) // no spec
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeTableMeta(data)
		if err != nil {
			return
		}
		if m.DenseWidth < 0 || m.TrainRows < 0 {
			t.Fatalf("accepted negative schema facts: %+v", m)
		}
		if m.S < 0 || math.IsNaN(m.S) || math.IsInf(m.S, 0) {
			t.Fatalf("accepted implausible S %v", m.S)
		}
		for _, p := range m.Partitions {
			if p.Hour < 0 {
				t.Fatalf("accepted negative partition hour %d", p.Hour)
			}
		}
		// As with the handshake fuzzer, JSON's case-insensitive matching
		// means hostile spellings can decode; the canonical re-encoding
		// must be a fixed point under decode/encode.
		re, err := encodeTableMeta(m)
		if err != nil {
			t.Fatalf("re-encoding accepted metadata: %v", err)
		}
		back, err := decodeTableMeta(re)
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		re2, err := encodeTableMeta(back)
		if err != nil {
			t.Fatalf("re-encoding round-tripped metadata: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical tablez form is not a fixed point:\n got %s\nwant %s", re2, re)
		}
	})
}

func fileUnitSeed(p dpp.UnitPiece) []byte {
	var buf bytes.Buffer
	if err := encodeFileUnit(&buf, p); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFileUnit: the file-unit frame closes every file a fleet mux
// reassembles its merged stream from, so a malicious or corrupt shard
// must never panic the client. decodeFileUnit on arbitrary bytes either
// fails cleanly or yields a closing record within every wire bound whose
// re-encoding decodes back equal — byte-identity of the re-encoding is
// NOT required, because Uvarint accepts non-minimal varints.
func FuzzDecodeFileUnit(f *testing.F) {
	env := newTestEnv(f, 24)
	r, err := reader.NewReader(env.store, misalignedSpec())
	if err != nil {
		f.Fatal(err)
	}
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		f.Fatal(err)
	}
	// A real misaligned scan's closing record carries keys and a tail —
	// every section of the frame layout is populated.
	scan, err := r.ScanFile(context.Background(), files[0], 0, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	if n := scan.Tail.Rows(); n == 0 || n > 0x7f {
		f.Fatalf("the seed scan's tail has %d rows, want a one-byte nonzero count to forge", n)
	}
	full := fileUnitSeed(dpp.UnitPiece{Index: 3, Tail: scan.Tail, Hit: true})
	f.Add(full)
	// A file that ends on a batch boundary: the schema, no rows.
	f.Add(fileUnitSeed(dpp.UnitPiece{Tail: scan.Tail.Slice(0, 0)}))
	tailAt := len(full) - len(scan.Tail.AppendTo(nil))
	for _, cut := range []int{1, 2, tailAt / 2, tailAt, (tailAt + len(full)) / 2, len(full) - 1} {
		f.Add(full[:cut])
	}
	f.Add(append(append([]byte(nil), full...), 0x00)) // trailing byte
	// Forged header: plausible prefix, then a key count over the cap.
	forged := binary.AppendUvarint(nil, 1) // index
	forged = append(forged, 1)             // hit
	forged = binary.AppendUvarint(forged, 4)
	forged = binary.AppendUvarint(forged, maxUnitKeys+1)
	f.Add(forged)
	// Hit flag outside {0, 1}.
	bad := append([]byte(nil), full...)
	bad[binary.PutUvarint(make([]byte, binary.MaxVarintLen64), 3)] = 7
	f.Add(bad)
	// The tail's columns, forged: claiming a row count far past its bytes,
	// and then one row more than its columns hold.
	f.Add(append(binary.AppendUvarint(full[:tailAt:tailAt], 1<<23), full[tailAt+1:]...))
	f.Add(append(binary.AppendUvarint(full[:tailAt:tailAt], uint64(scan.Tail.Rows()+1)), full[tailAt+1:]...))

	// The decoding client's spec is the seed scan's: frames that keep its
	// features keep a populated tail chunk through the round trip.
	consumed := misalignedSpec().ConsumedFeatures()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodeFileUnit(data, consumed)
		if err != nil {
			return
		}
		if p.Index < 0 || p.Index > maxUnitIndex {
			t.Fatalf("accepted out-of-range index %d", p.Index)
		}
		if p.File != "" {
			t.Fatalf("decoded closing record carries a file path %q; the index owns that mapping", p.File)
		}
		if p.Tail == nil || p.Batch != nil {
			t.Fatalf("accepted a closing record with tail %v and batch %v", p.Tail, p.Batch)
		}
		if len(p.Tail.Keys()) > maxUnitKeys || p.Tail.DenseWidth() > maxUnitDense {
			t.Fatalf("accepted closing record outside wire bounds: %d keys, dense %d", len(p.Tail.Keys()), p.Tail.DenseWidth())
		}
		for _, k := range p.Tail.Keys() {
			if len(k) > maxUnitKeyLen {
				t.Fatalf("accepted %d-byte key", len(k))
			}
		}
		var re bytes.Buffer
		if err := encodeFileUnit(&re, p); err != nil {
			t.Fatalf("re-encode of accepted closing record: %v", err)
		}
		back, err := decodeFileUnit(re.Bytes(), consumed)
		if err != nil {
			t.Fatalf("re-decode of accepted closing record: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("closing record did not round-trip:\n got %#v\nwant %#v", back, p)
		}
	})
}
