package dppnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/reader"
)

// Fuzz coverage for the two stats codecs the PR-5 scheduler fields
// extended: the binary session-stats frame (reader counters + cache
// counters + scheduler block) and the JSON svcstats frame. The
// adversarial model matches the batch-frame fuzzer: a malicious or
// corrupt server must never panic the client, every accepted decode must
// round-trip, and forged counts/overflow are rejected, not wrapped.

func sessionStatsSeed(st dpp.SessionStats) []byte {
	return appendSessionStats(nil, st)
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
	// Forged tails: plausible reader stats (the magic and nine zero
	// counters) followed by hostile varints.
	forged := append([]byte(statsMagic), make([]byte, 9)...)
	overflow := binary.AppendUvarint(nil, 1<<63)
	f.Add(append(append([]byte(nil), forged...), bytes.Repeat(overflow, 7)...))
	hugeWorkers := forged
	hugeWorkers = binary.AppendUvarint(hugeWorkers, 0) // hits
	hugeWorkers = binary.AppendUvarint(hugeWorkers, 0) // misses
	hugeWorkers = binary.AppendUvarint(hugeWorkers, maxWireWorkers+1)
	f.Add(hugeWorkers)

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSessionStats(data)
		if err != nil {
			return
		}
		if st.Cache.Hits < 0 || st.Cache.Misses < 0 ||
			st.Scheduler.Workers < 0 || st.Scheduler.Workers > maxWireWorkers ||
			st.Scheduler.ScaleUps < 0 || st.Scheduler.ScaleDowns < 0 ||
			st.Scheduler.WorkerStall < 0 || st.Scheduler.ConsumerStall < 0 {
			t.Fatalf("accepted stats with out-of-range fields: %+v", st)
		}
		back, err := decodeSessionStats(appendSessionStats(nil, st))
		if err != nil {
			t.Fatalf("round-trip decode failed: %v", err)
		}
		if back != st {
			t.Fatalf("round trip changed stats:\n got %+v\nwant %+v", back, st)
		}
	})
}

// TestStatsFrameBytesAreFixed: a stats frame is part of protocol v11, so
// the payload of a fixed SessionStats is held to the bytes the v10 encoder
// wrote and v11 keeps, and decodes back to the same stats.
func TestStatsFrameBytesAreFixed(t *testing.T) {
	st := dpp.SessionStats{
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
	const want = "52535453c0a9d33ac0caba15809bee02808040808080018020109f8d06d209070305040280e59a7780e89226"
	got := appendSessionStats(nil, st)
	if hex.EncodeToString(got) != want {
		t.Fatalf("stats frame payload\n got %x\nwant %s", got, want)
	}
	if back, err := decodeSessionStats(got); err != nil || back != st {
		t.Fatalf("decoded %+v, %v; want %+v", back, err, st)
	}
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
// state exists, and since v10 a stream's served indices too.
// decodeOpenRequest on arbitrary bytes either fails cleanly or yields a
// request within the handshake bounds (offset in [0, maxResumeOffset],
// token no longer than a minted one can be, served indices strictly
// increasing inside the file list) whose re-marshalled form decodes back
// equal.
func FuzzDecodeResumeHandshake(f *testing.F) {
	seed := func(req openRequest) []byte {
		payload, err := json.Marshal(req)
		if err != nil {
			panic(err)
		}
		return payload
	}
	ws, err := encodeSpec(dpp.Spec{Spec: misalignedSpec(), ShareScans: true, Files: []string{"a", "b", "c"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed(openRequest{Kind: kindSession, Window: 4, Spec: ws}))
	f.Add(seed(openRequest{
		Kind: kindSession, Window: 8, Spec: ws, Serves: []int{0, 2},
		Resumable: true, Offset: 1234, Token: "00112233445566778899aabbccddeeff",
	}))
	// Served indices: none (every file), repeated, decreasing, negative and
	// past the file list; and the retired file_units field, which is
	// ignored like any unknown one.
	for _, serves := range [][]int{{}, {1, 1}, {2, 0}, {-1}, {3}, nil} {
		f.Add(seed(openRequest{Kind: kindSession, Window: 8, Spec: ws, Serves: serves}))
	}
	f.Add([]byte(`{"kind":"session","window":8,"file_units":true,"serves":[]}`))
	f.Add(seed(openRequest{Kind: kindSession, Window: 8, Spec: ws, Serves: []int{0}}))
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
		for i, at := range req.Serves {
			if at < 0 || at >= len(req.Spec.Files) || (i > 0 && at <= req.Serves[i-1]) {
				t.Fatalf("accepted served indices %v of %d files", req.Serves, len(req.Spec.Files))
			}
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

// FuzzDecodeFileUnit: a unit stream's pieces are what every remote
// session's cutter and the fleet mux reassemble their batches from, so a
// malicious or corrupt server must never panic the client. The stream's
// decode, fed a piece frame's content stamped with the stream's own index
// and chain at a cursor standing inside a begun file or not, owing a head's
// carry or not, either fails cleanly before it sizes anything it must
// refuse, or yields a piece within every wire bound that keeps the stream's
// carry rule: a head only where a file begins, completing exactly the rows
// owed, a batch or closing record only where no head is owed. An accepted
// piece re-encodes to content that decodes back to a piece re-encoding the
// same — byte-identity with the input is NOT required, because Uvarint
// accepts non-minimal varints.
func FuzzDecodeFileUnit(f *testing.F) {
	env := newTestEnv(f, 24)
	spec := misalignedSpec() // 48-row batches
	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		f.Fatal(err)
	}
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		f.Fatal(err)
	}
	// A real misaligned scan's closing record carries keys and a tail —
	// every section of the piece layout is populated.
	scan, err := r.ScanFile(context.Background(), files[0], 0)
	if err != nil {
		f.Fatal(err)
	}
	pieces := scan.Pieces()
	tail := pieces[len(pieces)-1].Rows
	if n := tail.Rows(); n == 0 || n > 0x7f || pieces[0].Batch == nil {
		f.Fatalf("the seed scan's tail has %d rows, want a one-byte nonzero count to forge, behind a batch", n)
	}
	// The stream stands at file 3, owed no rows, unless a seed says so.
	const (
		noOwed = uint8(1) // owed%49 - 1: 0 rows owed
		owe16  = uint8(17)
	)
	full := appendPiece(nil, dpp.UnitPiece{Tail: tail})
	f.Add(full, false, noOwed)
	// A file that ends on a batch boundary: the schema, no rows.
	f.Add(appendPiece(nil, dpp.UnitPiece{Tail: tail.Slice(0, 0)}), false, noOwed)
	tailAt := len(full) - len(tail.AppendTo(nil))
	for _, cut := range []int{0, 2, tailAt / 2, tailAt, (tailAt + len(full)) / 2, len(full) - 1} {
		f.Add(full[:cut], false, noOwed)
	}
	f.Add(append(append([]byte(nil), full...), 0x00), false, noOwed) // bytes after the rows
	// Forged header: plausible prefix, then a key count over the cap.
	forged := binary.AppendUvarint([]byte{pieceTail}, 4)
	forged = binary.AppendUvarint(forged, maxUnitKeys+1)
	f.Add(forged, false, noOwed)
	// An unknown kind byte.
	f.Add(append([]byte{7}, full[1:]...), false, noOwed)
	// The tail's columns, forged: claiming a row count far past its bytes,
	// and then one row more than its columns hold.
	f.Add(append(binary.AppendUvarint(full[:tailAt:tailAt], 1<<23), full[tailAt+1:]...), false, noOwed)
	f.Add(append(binary.AppendUvarint(full[:tailAt:tailAt], uint64(tail.Rows()+1)), full[tailAt+1:]...), false, noOwed)
	// Heads: one completing the 16 rows owed, one carrying a whole batch,
	// one carrying none, one inside a file that has begun, one completing
	// other rows than the ones owed; a closing record and a batch where a
	// head is owed; and a batch inside a begun file.
	head := appendPiece(nil, dpp.UnitPiece{Head: tail, Carry: 16})
	f.Add(head, false, owe16)
	f.Add(slices.Concat([]byte{pieceHead, 48}, head[2:]), false, noOwed)
	f.Add(slices.Concat([]byte{pieceHead, 0}, head[2:]), false, noOwed)
	f.Add(head, true, noOwed)
	f.Add(head, false, uint8(33))
	f.Add(full, false, owe16)
	batch := appendPiece(nil, dpp.UnitPiece{Batch: pieces[0].Batch})
	f.Add(batch, false, owe16)
	f.Add(batch, true, noOwed)
	// A NaN dense cell, which crosses as its bits.
	tail.Dense()[0] = float32(math.NaN())
	f.Add(appendPiece(nil, dpp.UnitPiece{Tail: tail}), false, noOwed)

	// The decoding client's spec is the seed scan's: frames that keep its
	// features keep a populated chunk through the round trip. decode reads
	// the stream and changes nothing of it.
	st, err := newUnitStream(context.Background(), &Client{}, dpp.Spec{Spec: spec}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, content []byte, began bool, owed uint8) {
		at := cursor{frames: 9, chain: chainSeed, files: 3, inFile: began, owed: int(owed)%(spec.BatchSize+1) - 1}
		p, next, err := st.decode(stampPiece(at.frames, chainStep(at.chain, content), content), at)
		if err != nil {
			return
		}
		if p.Index != 3 || p.File != "" || p.Hit || next.frames != at.frames+1 {
			t.Fatalf("accepted piece %d (%q, hit %v) moved the stream from frame %d to %d", p.Index, p.File, p.Hit, at.frames, next.frames)
		}
		owes := !began && at.owed > 0
		switch {
		case (p.Batch != nil) == (p.Rows() != nil) || (p.Head != nil && p.Tail != nil):
			t.Fatalf("accepted piece as %+v", p)
		case p.Batch != nil && owes:
			t.Fatalf("accepted a batch where %d rows are owed", at.owed)
		case p.Head != nil && (began || p.Carry <= 0 || p.Carry >= spec.BatchSize || (at.owed >= 0 && p.Carry != at.owed)):
			t.Fatalf("accepted head completing %d rows where %d are owed (file begun: %v)", p.Carry, at.owed, began)
		case p.Head == nil && (owes || p.Carry != 0):
			t.Fatalf("accepted batch or closing record (carry %d) where %d rows are owed", p.Carry, at.owed)
		}
		if rows := p.Rows(); rows != nil {
			if len(rows.Keys()) > maxUnitKeys || rows.DenseWidth() > maxUnitDense {
				t.Fatalf("accepted piece outside wire bounds: %d keys, dense %d", len(rows.Keys()), rows.DenseWidth())
			}
			for _, k := range rows.Keys() {
				if len(k) > maxUnitKeyLen {
					t.Fatalf("accepted %d-byte key", len(k))
				}
			}
		}
		re := appendPiece(nil, p)
		back, _, err := st.decode(stampPiece(at.frames, chainStep(at.chain, re), re), at)
		if err != nil {
			t.Fatalf("re-decode of accepted piece: %v", err)
		}
		if !bytes.Equal(appendPiece(nil, back), re) || back.Carry != p.Carry || back.Index != p.Index {
			t.Fatalf("piece did not round-trip:\n got %#v\nwant %#v", back, p)
		}
	})
}
