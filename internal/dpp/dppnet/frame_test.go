package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/internal/dpp"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// stampPiece is a piece frame's payload written the plain way — allocate,
// stamp, copy the content behind — as the server built every frame before
// it built them in place. It is the reference sealFrame is checked
// against, and what the tests that forge frames use.
func stampPiece(index int64, chain uint64, content []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(index))
	buf = binary.BigEndian.AppendUint64(buf, chain)
	return append(buf, content...)
}

// unstamp splits a piece frame's payload into its stamp and content; a
// payload too short to hold them comes back with ok false.
func unstamp(payload []byte) (index int64, chain uint64, content []byte, ok bool) {
	idx, n := binary.Uvarint(payload)
	if n <= 0 || len(payload) < n+8 {
		return 0, 0, nil, false
	}
	return int64(idx), binary.BigEndian.Uint64(payload[n:]), payload[n+8:], true
}

// TestSealFrameMatchesReference: a frame sealed in place is byte for byte
// the frame writeFrame makes of the reference payload, across every
// width the index and length varints take, and its accounting length is
// the payload's.
func TestSealFrameMatchesReference(t *testing.T) {
	const chain = 0x0123456789abcdef
	for _, n := range []int{0, 1, 100, 127, 128, 16383, 16384, 70000, 1 << 21} {
		content := pattern(n)
		for _, index := range []int64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 35, maxResumeOffset} {
			payload := stampPiece(index, chain, content)
			var want bytes.Buffer
			writeFrame(&want, framePiece, payload)

			buf := append(make([]byte, frameReserve), content...)
			fr := sealFrame(buf, index, chain)
			if !bytes.Equal(fr.wire(), want.Bytes()) {
				t.Fatalf("index %d, %d content bytes: sealed frame differs from the reference", index, n)
			}
			if fr.payloadLen() != len(payload) {
				t.Fatalf("index %d, %d content bytes: payloadLen = %d, reference payload %d", index, n, fr.payloadLen(), len(payload))
			}
			if !bytes.Equal(buf[frameReserve:], content) {
				t.Fatalf("index %d, %d content bytes: sealing wrote into the content", index, n)
			}
		}
	}
}

// frameReadChunk is the chunk tensor.ReadInto collects a long frame by.
const frameReadChunk = 1 << 16

// arrivals is a frame source that counts the bytes it has handed out, so
// a test can hold the reader's allocations against what really arrived.
type arrivals struct {
	r   io.Reader
	got int
}

func (a *arrivals) Read(p []byte) (int, error) {
	n, err := a.r.Read(p)
	a.got += n
	return n, err
}

// TestForgedFrameLengthAllocatesByArrival: a frame header may claim the
// whole 256 MiB limit; what the reader allocates follows the bytes that
// arrive, never the claim. The peer sends 10 bytes (and, second case,
// 300 KiB) and closes: the frame buffer stays within one chunk of what
// arrived, and so does everything the call allocated.
func TestForgedFrameLengthAllocatesByArrival(t *testing.T) {
	const slack = 8 << 10 // the bufio.Reader, the chunk list, the error
	for _, sent := range []int{10, 300 << 10} {
		forged := binary.AppendUvarint([]byte{framePiece}, maxFrameBytes)
		forged = append(forged, make([]byte, sent)...)
		var buf []byte
		var before, after runtime.MemStats
		// TotalAlloc is process-wide; the best of three runs is this call's.
		grew := ^uint64(0)
		for try := 0; try < 3; try++ {
			src := &arrivals{r: bytes.NewReader(forged)}
			br := bufio.NewReader(src)
			runtime.ReadMemStats(&before)
			_, _, err := readFrameInto(br, maxFrameBytes, &buf)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d of a declared %d bytes read as a whole frame", sent, maxFrameBytes)
			}
			if cap(buf) > src.got+frameReadChunk {
				t.Fatalf("frame buffer grew to %d bytes on %d received", cap(buf), src.got)
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := uint64(sent + frameReadChunk + slack); grew > limit {
			t.Fatalf("reading %d of a declared %d bytes allocated %d, more than arrival + one chunk (%d)", sent, maxFrameBytes, grew, limit)
		}
	}
}

// TestReadFrameIntoReusesAndGrowsToSize: the other half of the rule. An
// honest frame larger than the buffer leaves it the declared size — not
// the next doubling — and every later frame that fits is read in place
// with no allocation.
func TestReadFrameIntoReusesAndGrowsToSize(t *testing.T) {
	var stream bytes.Buffer
	big, small := pattern(5*frameReadChunk+123), pattern(1000)
	writeFrame(&stream, framePiece, big)
	writeFrame(&stream, frameEOF, small)
	src := bytes.NewReader(stream.Bytes())
	br := bufio.NewReader(src)

	var buf []byte
	typ, payload, err := readFrameInto(br, maxFrameBytes, &buf)
	if err != nil || typ != framePiece || !bytes.Equal(payload, big) {
		t.Fatalf("first frame = type %#x, %d bytes, %v", typ, len(payload), err)
	}
	if cap(buf) < len(big) || cap(buf) > len(big)+len(big)/8 {
		t.Fatalf("buffer is %d bytes after a %d-byte frame, want the declared size", cap(buf), len(big))
	}
	held := &buf[:1][0]
	if typ, payload, err = readFrameInto(br, maxFrameBytes, &buf); err != nil || typ != frameEOF || !bytes.Equal(payload, small) {
		t.Fatalf("second frame = type %#x, %d bytes, %v", typ, len(payload), err)
	}
	if &payload[0] != held {
		t.Fatal("a frame that fits was not read into the buffer in place")
	}
	if allocs := testing.AllocsPerRun(20, func() {
		src.Reset(stream.Bytes())
		br.Reset(src)
		for i := 0; i < 2; i++ {
			if _, _, err := readFrameInto(br, maxFrameBytes, &buf); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("re-reading frames that fit costs %.0f allocs per run, want 0", allocs)
	}
}

// TestDecodedItemsOutliveTheFrameBuffer: the client reads every frame of
// a connection into one buffer, so what decode returns must own all of its
// memory. Over real recorded streams, aligned and carrying rows into their
// files, with complete batches, heads and tail rows: decode a frame,
// overwrite the buffer it was decoded from, and the piece still re-encodes
// to the bytes the server sent.
func TestDecodedItemsOutliveTheFrameBuffer(t *testing.T) {
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	files := allFiles(t, env)
	for _, rs := range []reader.Spec{alignedSpec(), misalignedSpec()} {
		spec := dpp.Spec{Spec: rs, Files: files}
		st, err := newUnitStream(context.Background(), &Client{}, spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		frames := payloadFrames(recordStream(t, h.addr, spec), framePiece)
		at := st.at
		nbatches, tails := 0, 0
		for i, payload := range frames {
			work := append([]byte(nil), payload...)
			u, next, err := st.decode(work, at)
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			at = next
			for j := range work {
				work[j] = 0xFF
			}
			if u.Batch != nil {
				nbatches++
			} else if u.Tail != nil {
				tails += u.Tail.Rows()
			}
			if _, _, content, _ := unstamp(payload); !bytes.Equal(appendPiece(nil, u), content) {
				t.Fatalf("batch size %d: piece frame %d of file %d changed when its frame buffer was overwritten", rs.BatchSize, i, u.Index)
			}
		}
		if at.files != len(files) || nbatches < 2 || tails == 0 {
			t.Fatalf("batch size %d: recorded stream closed %d of %d files with %d batch pieces, %d tail rows", rs.BatchSize, at.files, len(files), nbatches, tails)
		}
	}
}

// TestRecycledFramesResendIdentical: a resumable session's frames live in
// buffers that go back to the stream when the client confirms them, and a
// dropped connection is owed everything it had not confirmed. So a buffer
// must be recycled at the ack and not a frame sooner. The client here
// fills its window, confirms one frame — whose buffer the server then
// reuses for the next — and drops with a full window unconfirmed; the
// resumed connection must be resent exactly those frames, and the whole
// stream must be the uninterrupted one, byte for byte. Run under -race
// (the buffers cross from one connection's handler to the next) and in
// the contention step.
func TestRecycledFramesResendIdentical(t *testing.T) {
	before := runtime.NumGoroutine()
	const window = 3
	env := newTestEnv(t, 120)
	h := startServer(t, env, dpp.Config{})
	spec := dpp.Spec{Spec: alignedSpec(), Files: allFiles(t, env)}
	want := payloadFrames(recordStream(t, h.addr, spec), framePiece)
	if len(want) < 2*window+2 {
		t.Fatalf("reference stream has %d frames, too few to wrap a window of %d", len(want), window)
	}
	ws, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	open := func(req openRequest) (net.Conn, *bufio.Reader, string) {
		req.Kind, req.Window, req.Spec, req.Resumable = kindSession, window, ws, true
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		conn := rawDial(t, h.addr)
		conn.Write(append([]byte(protoMagic), protoVersion))
		writeFrame(conn, frameOpen, payload)
		br := bufio.NewReader(conn)
		typ, reply, err := readFrame(br, maxFrameBytes)
		if err != nil || typ != frameOK {
			t.Fatalf("handshake reply = frame %#x %q, %v", typ, reply, err)
		}
		ok, err := decodeOKReply(reply)
		if err != nil || ok.Token == "" {
			t.Fatalf("ok reply %q carries no token (%v)", reply, err)
		}
		return conn, br, ok.Token
	}
	// expect reads the next payload frame and holds it to the reference.
	expect := func(br *bufio.Reader, index int, when string) {
		t.Helper()
		typ, payload, err := readFrame(br, maxFrameBytes)
		if err != nil || typ != framePiece {
			t.Fatalf("%s: frame %d = type %#x, %v", when, index, typ, err)
		}
		if !bytes.Equal(payload, want[index]) {
			t.Fatalf("%s: frame %d differs from the uninterrupted stream's", when, index)
		}
	}
	credit := func(conn net.Conn) { writeFrame(conn, frameCredit, binary.AppendUvarint(nil, 1)) }

	conn, br, token := open(openRequest{})
	for i := 0; i < window; i++ {
		expect(br, i, "first connection")
	}
	// Confirm frame 0: its buffer is recycled, and frame `window` — which
	// the server could not build until now — is built in it.
	credit(conn)
	expect(br, window, "first connection")
	conn.Close()

	// Frames 1..window are owed. Each was built before or after the recycle
	// and has sat in the parked entry since.
	conn, br, _ = open(openRequest{Token: token, Offset: 1})
	defer conn.Close()
	for i := 1; i <= window; i++ {
		expect(br, i, "resent")
	}
	for i := window + 1; i < len(want); i++ {
		credit(conn)
		expect(br, i, "after the resume")
	}
	if got := h.srv.Stats(); got.ResumedSessions != 1 || got.ParkedSessions != 1 {
		t.Fatalf("server counted %d resumed, %d parked sessions, want 1 and 1", got.ResumedSessions, got.ParkedSessions)
	}
	writeFrame(conn, frameClose, nil)
	conn.Close()
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// hopBatch is the batch the hop benchmarks send: the first 256-row batch
// of every feature the test table has.
func hopBatch(b *testing.B) *reader.Batch {
	env := newTestEnv(b, 120)
	spec := alignedSpec()
	spec.BatchSize = 256
	r, err := reader.NewReader(env.store, spec)
	if err != nil {
		b.Fatal(err)
	}
	var batch *reader.Batch
	if err := r.Run(b.Context(), allFiles(b, env)[:1], func(bt *reader.Batch) error {
		batch = bt
		return nil
	}); err != nil || batch == nil || batch.Size != 256 {
		b.Fatalf("no 256-row batch to send: %v", err)
	}
	return batch
}

// reportPerRow reports the loop's time per batch row.
func reportPerRow(b *testing.B, batch *reader.Batch) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batch.Size), "ns/row")
}

// BenchmarkBatchFrameHop is one batch's whole trip across the wire, minus
// the socket: hopBatch is encoded into a piece frame buffer, hashed and sealed
// as unitWire.next does, written through a bufio.Writer into memory, read
// back as the client's receive loop reads it, verified against the chain
// and decoded. ns/row is the per-layer number the ladder's remote_warm
// rows/s sits on; BenchmarkBatchEncode and BenchmarkBatchDecode split out
// its two codec layers.
func BenchmarkBatchFrameHop(b *testing.B) {
	batch := hopBatch(b)
	piece := dpp.UnitPiece{Batch: batch}
	var pipe bytes.Buffer
	bw, br := bufio.NewWriter(&pipe), bufio.NewReader(&pipe)
	server := unitWire{chain: chainSeed}
	client, err := newUnitStream(context.Background(), &Client{}, dpp.Spec{Spec: alignedSpec()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	at := client.at
	var recv []byte
	b.ReportAllocs()
	for i := int64(0); b.Loop(); i++ {
		buf := appendPiece(server.buffer(), piece)
		server.chain = chainStep(server.chain, buf[frameReserve:])
		fr := sealFrame(buf, i, server.chain)
		if _, err := bw.Write(fr.wire()); err != nil {
			b.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			b.Fatal(err)
		}
		server.recycle(fr)

		typ, payload, err := readFrameInto(br, maxFrameBytes, &recv)
		if err != nil || typ != framePiece {
			b.Fatalf("frame %d read back as type %#x, %v", i, typ, err)
		}
		var got dpp.UnitPiece
		if got, at, err = client.decode(payload, at); err != nil || got.Batch.Size != batch.Size {
			b.Fatalf("frame %d: %v", i, err)
		}
	}
	b.SetBytes(int64(len(recv)))
	reportPerRow(b, batch)
}

// BenchmarkBatchEncode is the hop's server codec layer alone: the batch
// appended into a recycled frame buffer, as unitWire.next does.
func BenchmarkBatchEncode(b *testing.B) {
	batch := hopBatch(b)
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		buf = batch.AppendTo(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
	reportPerRow(b, batch)
}

// BenchmarkBatchDecode is the hop's client codec layer alone: a verified
// frame body decoded into a fresh batch, as the client's decode does.
func BenchmarkBatchDecode(b *testing.B) {
	batch := hopBatch(b)
	body := batch.AppendTo(nil)
	b.ReportAllocs()
	for b.Loop() {
		if got, _, err := reader.DecodeBatchFrom(body); err != nil || got.Size != batch.Size {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(body)))
	reportPerRow(b, batch)
}
