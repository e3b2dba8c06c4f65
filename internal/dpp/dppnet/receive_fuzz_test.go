package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/dpp"
)

// recordStream plays a real session against a live server and returns the
// server→client bytes after the handshake's ok — a frame stream exactly as
// the receive loop reads it. The window covers the whole stream, so the
// server never waits for a credit.
func recordStream(t testing.TB, addr string, spec dpp.Spec, units bool) []byte {
	t.Helper()
	ws, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(openRequest{Kind: kindSession, Window: dpp.MaxWindow, Spec: ws, FileUnits: units})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(append([]byte(protoMagic), protoVersion))
	writeFrame(conn, frameOpen, payload)
	br := bufio.NewReader(conn)
	if typ, reply, err := readFrame(br, maxFrameBytes); err != nil || typ != frameOK {
		t.Fatalf("handshake reply = frame %#x %q, %v", typ, reply, err)
	}
	// The server holds the connection until its frames are acknowledged,
	// so stop at the eof frame. writeFrame is the server's own encoder:
	// re-framing what readFrame returned gives back the bytes it sent.
	var data bytes.Buffer
	for {
		typ, payload, err := readFrame(br, maxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		writeFrame(&data, typ, payload)
		if typ == frameEOF {
			return data.Bytes()
		}
	}
}

// splitFrames cuts a frame stream into its frames' raw bytes.
func splitFrames(t testing.TB, data []byte) [][]byte {
	t.Helper()
	var frames [][]byte
	for len(data) > 0 {
		n, w := binary.Uvarint(data[1:])
		if w <= 0 || uint64(len(data)) < uint64(1+w)+n {
			t.Fatalf("recorded stream is not a whole number of frames")
		}
		end := 1 + w + int(n)
		frames = append(frames, data[:end])
		data = data[end:]
	}
	return frames
}

// payloadFrames returns, in order, the payloads of data's typ frames up to
// the first unreadable frame — the test's own walk of the input.
func payloadFrames(data []byte, typ byte) [][]byte {
	br := bufio.NewReader(bytes.NewReader(data))
	var out [][]byte
	for {
		t, p, err := readFrame(br, maxFrameBytes)
		if err != nil {
			return out
		}
		if t == typ {
			out = append(out, p)
		}
	}
}

// controlFrame is one frame of the given type, as writeFrame makes it.
func controlFrame(typ byte, payload string) []byte {
	var buf bytes.Buffer
	writeFrame(&buf, typ, []byte(payload))
	return buf.Bytes()
}

// runReceive feeds data to one receive loop as its connection's bytes — a
// bufio.Reader, no socket — and returns every message it delivered, having
// checked the terminal rule: exactly one terminal message, and it is last.
func runReceive[T any](t *testing.T, data []byte, k kind[T]) (items []remoteMsg[T], end error) {
	st := &stream[T]{client: &Client{}, kind: k, ws: &wireSpec{}, ctx: context.Background(), done: make(chan struct{})}
	recv := make(chan remoteMsg[T])
	go st.receive(bufio.NewReader(bytes.NewReader(data)), recv, func() {}, 0, chainSeed)
	for m := range recv {
		if end != nil {
			t.Fatalf("message after the terminal %v: %+v", end, m)
		}
		if m.err != nil {
			end = m.err
		} else {
			items = append(items, m)
		}
	}
	if end == nil {
		t.Fatalf("receive closed its channel after %d items without a terminal message", len(items))
	}
	return items, end
}

// FuzzClientReceive: the one receive loop parses whatever a server — or
// whoever sits on the path — sends. On arbitrary bytes, for either kind, it
// must never panic, must deliver exactly one terminal message, and must
// never deliver an item whose index and chain hash the test's own walk of
// the same bytes does not confirm.
func FuzzClientReceive(f *testing.F) {
	env := newTestEnv(f, 60)
	h := startServer(f, env, dpp.Config{})
	files := allFiles(f, env)
	spec := dpp.Spec{Spec: alignedSpec(), Files: files}
	tail := spec.ConsumedFeatures()

	// Control frames a server may — or, the last three, may no longer —
	// interleave with the stream: the empty drain frame, one with a v7
	// payload, the retired extend frame, and a frame type never assigned.
	interleaved := [][]byte{
		controlFrame(frameDrain, ""),
		controlFrame(frameDrain, `{"token":"t","offset":1}`),
		controlFrame(frameExtend, `{"files":["landed"]}`),
		controlFrame(0x7f, "?"),
	}
	for _, units := range []bool{false, true} {
		real := recordStream(f, h.addr, spec, units)
		frames := splitFrames(f, real)
		if len(frames) < 4 { // two payload frames, stats, eof
			f.Fatalf("recorded stream has only %d frames", len(frames))
		}
		f.Add(real)
		f.Add(real[:len(real)/2])                // truncated mid-frame
		f.Add(real[:len(frames[0])])             // truncated on a frame boundary
		f.Add(real[len(frames[0]):])             // starts at index 1: out of order
		f.Add(bytes.Join(frames[1:], frames[0])) // a repeated first frame
		swapped := append([]byte(nil), real...)
		swapped[len(frames[0])-len(frames[0])/2] ^= 0x40 // a flipped content byte: chain mismatch
		f.Add(swapped)
		stamped := append([]byte(nil), real...)
		stamped[4] ^= 0x01 // a flipped byte of the stamp itself
		f.Add(stamped)
		for _, c := range interleaved { // each control frame after the first item
			f.Add(slices.Concat(frames[0], c, real[len(frames[0]):]))
		}
	}
	h.shutdown(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, _ := runReceive(t, data, batchKind)
		sent, chain := payloadFrames(data, frameBatch), chainSeed
		for i, m := range batches {
			if i >= len(sent) {
				t.Fatalf("delivered %d batches from %d batch frames", len(batches), len(sent))
			}
			idx, stamp, body, err := decodeBatchFrame(sent[i])
			chain = chainStep(chain, body)
			if err != nil || idx != int64(i) || stamp != chain || m.chain != chain {
				t.Fatalf("delivered batch %d unverified: frame index %d (%v), stamp %#x, chain %#x, reported %#x",
					i, idx, err, stamp, chain, m.chain)
			}
		}

		units, _ := runReceive(t, data, unitKind(files, tail))
		sent, chain = payloadFrames(data, frameFileUnit), chainSeed
		for i, m := range units {
			if i >= len(sent) {
				t.Fatalf("delivered %d units from %d unit frames", len(units), len(sent))
			}
			stamp, body, err := decodeUnitFrame(sent[i])
			if err == nil {
				chain, err = chainUnit(chain, body)
			}
			idx, _ := binary.Uvarint(body)
			if err != nil || idx != uint64(i) || stamp != chain || m.chain != chain ||
				m.item.Index != i || m.item.File != files[i] {
				t.Fatalf("delivered unit %d unverified: frame index %d (%v), stamp %#x, chain %#x, reported %#x as %d %q",
					i, idx, err, stamp, chain, m.chain, m.item.Index, m.item.File)
			}
		}
	})
}

// TestClientReceiveRecordedStreams: the fuzz harness's ground truth — a
// recorded real stream of either kind delivers every item and ends in
// io.EOF; each corruption the seed corpus carries ends it early with an
// error; and the control frames follow the protocol's table: an empty
// drain is advisory on a batch stream and ends a unit stream with
// ErrDrained, a drain with a payload and the retired extend frame (0x19)
// are protocol errors that name what arrived.
func TestClientReceiveRecordedStreams(t *testing.T) {
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	files := allFiles(t, env)
	spec := dpp.Spec{Spec: alignedSpec(), Files: files}

	count := func(data []byte, units bool) (int, error) {
		if units {
			items, end := runReceive(t, data, unitKind(files, spec.ConsumedFeatures()))
			return len(items), end
		}
		items, end := runReceive(t, data, batchKind)
		return len(items), end
	}
	for _, units := range []bool{false, true} {
		real := recordStream(t, h.addr, spec, units)
		first := len(splitFrames(t, real)[0])
		total, end := count(real, units)
		if end != io.EOF || total < 2 {
			t.Fatalf("units=%v: recorded stream delivered %d items to %v, want several to io.EOF", units, total, end)
		}
		swapped := append([]byte(nil), real...)
		swapped[first+first/2] ^= 0x40 // inside the second frame's content
		// after splices one control frame in behind the first item.
		after := func(typ byte, payload string) []byte {
			return slices.Concat(real[:first], controlFrame(typ, payload), real[first:])
		}
		drained := struct {
			want int
			says string
		}{total, "EOF"} // advisory: the batch stream runs on to its end
		if units {
			drained.want, drained.says = 1, ErrDrained.Error()
		}
		for name, tc := range map[string]struct {
			data []byte
			want int
			says string // what the terminal error must say; "" for any error but EOF
		}{
			"truncated":          {real[:first+first/2], 1, ""},
			"out of order":       {real[first:], 0, ""},
			"chain swap":         {swapped, 1, ""},
			"drain":              {after(frameDrain, ""), drained.want, drained.says},
			"drain with payload": {after(frameDrain, `{"token":"t","offset":1}`), 1, "drain frame with a 24-byte payload"},
			"retired extend":     {after(0x19, `{"files":["landed"]}`), 1, "unexpected frame 0x19"},
		} {
			n, end := count(tc.data, units)
			if n != tc.want || end == nil || !strings.Contains(end.Error(), tc.says) || (tc.says == "" && end == io.EOF) {
				t.Fatalf("units=%v %s: delivered %d items to %v, want %d and an error saying %q", units, name, n, end, tc.want, tc.says)
			}
		}
	}
}

// TestDecodeCredit: a credit grant is one uvarint in [1, dpp.MaxWindow]
// occupying the whole payload; everything else is a protocol error.
func TestDecodeCredit(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		want    int64 // 0: rejected
	}{
		{"one", binary.AppendUvarint(nil, 1), 1},
		{"max window", binary.AppendUvarint(nil, dpp.MaxWindow), dpp.MaxWindow},
		{"empty", nil, 0},
		{"zero", binary.AppendUvarint(nil, 0), 0},
		{"over max window", binary.AppendUvarint(nil, dpp.MaxWindow+1), 0},
		{"trailing byte", append(binary.AppendUvarint(nil, 1), 0), 0},
		{"unterminated varint", []byte{0x80}, 0},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), 0},
	} {
		got, err := decodeCredit(tc.payload)
		if (err == nil) != (tc.want != 0) || got != tc.want {
			t.Errorf("%s: decodeCredit(%x) = %d, %v; want %d", tc.name, tc.payload, got, err, tc.want)
		}
	}
}
