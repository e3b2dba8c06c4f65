package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
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

// typedFrame is one frame of a walked stream.
type typedFrame struct {
	typ     byte
	payload []byte
}

// unitFrames returns, in order, the payload frames of a unit stream — its
// batch frames and file-unit frames — up to the first unreadable frame.
func unitFrames(data []byte) []typedFrame {
	br := bufio.NewReader(bytes.NewReader(data))
	var out []typedFrame
	for {
		t, p, err := readFrame(br, maxFrameBytes)
		if err != nil {
			return out
		}
		if t == frameBatch || t == frameFileUnit {
			out = append(out, typedFrame{t, p})
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
	go st.receive(bufio.NewReader(bytes.NewReader(data)), recv, func() {}, cursor{chain: chainSeed})
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

// forgedUnitStreams are unit streams no recording has, built with the
// test's own encoders from a recorded one: a file closed with no batch frame
// before it (a file shorter than a batch: legal, and delivered), a closing
// record whose index skips a file (refused), and a batch frame behind the
// eof frame (never read).
func forgedUnitStreams(t testing.TB, real []byte, consumed []string) (bare, skips, late []byte) {
	t.Helper()
	frames := unitFrames(real)
	_, body, err := decodeUnitFrame(frames[len(frames)-1].payload)
	if err != nil {
		t.Fatal(err)
	}
	closing, err := decodeFileUnit(body, consumed)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(index int) []byte {
		closing.Index = index
		unit := appendFileUnit(nil, closing)
		chain, err := chainUnit(chainSeed, unit)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		writeFrame(&buf, frameFileUnit, encodeUnitFrame(chain, unit))
		writeFrame(&buf, frameEOF, nil)
		return buf.Bytes()
	}
	var batch bytes.Buffer
	writeFrame(&batch, frameBatch, frames[0].payload)
	return stream(0), stream(1), slices.Concat(real, batch.Bytes())
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
		if units {
			bare, skips, late := forgedUnitStreams(f, real, tail)
			f.Add(bare)
			f.Add(skips)
			f.Add(late)
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
			if err != nil || idx != int64(i) || stamp != chain || m.at.chain != chain {
				t.Fatalf("delivered batch %d unverified: frame index %d (%v), stamp %#x, chain %#x, reported %#x",
					i, idx, err, stamp, chain, m.at.chain)
			}
		}

		// A unit stream's items are its payload frames of both types, one
		// index sequence over them all; a batch belongs to the file the next
		// closing record names, and closing records count the files up.
		pieces, _ := runReceive(t, data, unitKind(files, tail))
		frames, file := unitFrames(data), 0
		chain = chainSeed
		for i, m := range pieces {
			if i >= len(frames) {
				t.Fatalf("delivered %d pieces from %d payload frames", len(pieces), len(frames))
			}
			var stamp uint64
			var err error
			closes := frames[i].typ == frameFileUnit
			if closes {
				var body []byte
				if stamp, body, err = decodeUnitFrame(frames[i].payload); err == nil {
					chain, err = chainUnit(chain, body)
				}
				if idx, _ := binary.Uvarint(body); err == nil && idx != uint64(file) {
					err = fmt.Errorf("closing record of file %d", idx)
				}
			} else {
				var idx int64
				var body []byte
				idx, stamp, body, err = decodeBatchFrame(frames[i].payload)
				chain = chainStep(chain, body)
				if err == nil && idx != int64(i) {
					err = fmt.Errorf("batch frame index %d", idx)
				}
			}
			if err != nil || stamp != chain || m.at.chain != chain || file >= len(files) ||
				m.item.Index != file || m.item.File != files[file] || closes != (m.item.Tail != nil) || closes == (m.item.Batch != nil) {
				t.Fatalf("delivered piece %d of file %d unverified: frame %#x (%v), stamp %#x, chain %#x, reported %#x as file %d %q",
					i, file, frames[i].typ, err, stamp, chain, m.at.chain, m.item.Index, m.item.File)
			}
			if closes {
				file++
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

	tail := spec.ConsumedFeatures()
	count := func(data []byte, units bool) (int, error) {
		if units {
			items, end := runReceive(t, data, unitKind(files, tail))
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
			// The notice arrives inside file 0 — behind its first batch —
			// and surfaces once the file's closing record has been read.
			closed := slices.IndexFunc(unitFrames(real), func(fr typedFrame) bool { return fr.typ == frameFileUnit })
			if closed < 2 {
				t.Fatalf("file 0 of the recorded unit stream closes at frame %d; the drain case needs a multi-batch file", closed)
			}
			drained.want, drained.says = closed+1, ErrDrained.Error()
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
		if !units {
			continue
		}
		bare, skips, late := forgedUnitStreams(t, real, tail)
		for name, tc := range map[string]struct {
			data []byte
			want int
			says string
		}{
			"closing record with no batches": {bare, 1, "EOF"},
			"closing record index skips":     {skips, 0, "file unit 1 out of order"},
			"batch frame after eof":          {late, total, "EOF"},
		} {
			if n, end := count(tc.data, true); n != tc.want || end == nil || !strings.Contains(end.Error(), tc.says) {
				t.Fatalf("%s: delivered %d items to %v, want %d and %q", name, n, end, tc.want, tc.says)
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

// TestClientControlFrames: the frames a client sends whole are the frames
// writeFrame makes — a credit of one, and the two empty ones.
func TestClientControlFrames(t *testing.T) {
	for _, tc := range []struct {
		name    string
		frame   []byte
		typ     byte
		payload []byte
	}{
		{"credit", oneCredit, frameCredit, binary.AppendUvarint(nil, 1)},
		{"close", closeFrame, frameClose, nil},
		{"end-follow", endFollowFrame, frameEndFollow, nil},
	} {
		var want bytes.Buffer
		writeFrame(&want, tc.typ, tc.payload)
		if !bytes.Equal(tc.frame, want.Bytes()) {
			t.Errorf("%s frame is % x, writeFrame makes % x", tc.name, tc.frame, want.Bytes())
		}
	}
}
