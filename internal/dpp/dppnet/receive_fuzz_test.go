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
	"repro/internal/reader"
)

// recordStream plays a real session against a live server and returns
// the server→client bytes after the handshake's ok — a frame stream exactly
// as the receive loop reads it. The window covers the whole stream, so the
// server never waits for a credit.
func recordStream(t testing.TB, addr string, spec dpp.Spec) []byte {
	t.Helper()
	ws, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(openRequest{Kind: kindSession, Window: dpp.MaxWindow, Spec: ws})
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
	typ, reply, err := readFrame(br, maxFrameBytes)
	if err != nil || typ != frameOK {
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

// runReceive feeds data to one receive loop of a stream over spec's files
// as its connection's bytes — a bufio.Reader, no socket — and returns every
// message it delivered, having checked the terminal rule: exactly one
// terminal message, and it is last — and whether it recorded a drain.
func runReceive(t *testing.T, data []byte, spec dpp.Spec) (items []remoteMsg, end error, drained bool) {
	st, err := newUnitStream(context.Background(), &Client{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	recv := make(chan remoteMsg)
	go st.receive(bufio.NewReader(bytes.NewReader(data)), recv, func() {}, st.at)
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
	return items, end, st.Drained()
}

// forgedUnitStreams are unit streams no recording has, built with the
// test's own encoders from a recorded one: a file closed with no batch
// before it (a file shorter than a batch: legal, and delivered), a closing
// record stamped with an index that skips a frame (refused), and a batch
// frame behind the eof frame (never read).
func forgedUnitStreams(t testing.TB, real []byte, spec dpp.Spec) (bare, skips, late []byte) {
	t.Helper()
	frames := payloadFrames(real, framePiece)
	_, _, content, _ := unstamp(frames[len(frames)-1])
	eof := payloadFrames(real, frameEOF)
	if content[0] != pieceTail || len(eof) != 1 {
		t.Fatalf("recorded stream does not end on a closing record and one eof frame")
	}
	stream := func(index int64) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, framePiece, stampPiece(index, chainStep(chainSeed, content), content))
		writeFrame(&buf, frameEOF, eof[0])
		return buf.Bytes()
	}
	var batch bytes.Buffer
	writeFrame(&batch, framePiece, frames[0])
	return stream(0), stream(1), slices.Concat(real, batch.Bytes())
}

// FuzzClientReceive: the one receive loop parses whatever a server — or
// whoever sits on the path — sends. On arbitrary bytes it must never panic,
// must deliver exactly one terminal message, and must never deliver a piece
// whose index, chain hash and carry the test's own walk of the same bytes
// does not confirm. Two streams are recorded: one whose batches end on
// every file boundary, and one whose batch size carries rows into every
// file but the first, so its files open with heads.
func FuzzClientReceive(f *testing.F) {
	env := newTestEnv(f, 60)
	h := startServer(f, env, dpp.Config{})
	files := allFiles(f, env)
	spec := dpp.Spec{Spec: misalignedSpec(), Files: files}

	// Control frames a server may — or, the last three, may no longer —
	// interleave with the stream: the empty drain frame, one with a v7
	// payload, the retired extend frame, and a frame type never assigned.
	interleaved := [][]byte{
		controlFrame(frameDrain, ""),
		controlFrame(frameDrain, `{"token":"t","offset":1}`),
		controlFrame(frameExtend, `{"files":["landed"]}`),
		controlFrame(0x7f, "?"),
	}
	for _, rs := range []reader.Spec{alignedSpec(), misalignedSpec()} {
		sp := dpp.Spec{Spec: rs, Files: files}
		real := recordStream(f, h.addr, sp)
		frames := splitFrames(f, real)
		if len(frames) < 3 { // two piece frames, eof
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
		if rs.BatchSize == spec.BatchSize {
			bare, skips, late := forgedUnitStreams(f, real, sp)
			f.Add(bare)
			f.Add(skips)
			f.Add(late)
		}
	}
	h.shutdown(f)

	f.Fuzz(func(t *testing.T, data []byte) {
		// The stream's pieces are its piece frames, one index sequence over
		// them all; a file carried into opens with a head completing exactly
		// the rows carried, and closing records count the files up.
		pieces, _, _ := runReceive(t, data, spec)
		frames, file, began, owed := payloadFrames(data, framePiece), 0, false, 0
		chain := chainSeed
		for i, m := range pieces {
			if i >= len(frames) {
				t.Fatalf("delivered %d pieces from %d piece frames", len(pieces), len(frames))
			}
			var err error
			idx, stamp, content, ok := unstamp(frames[i])
			if !ok || len(content) == 0 {
				err = fmt.Errorf("piece frame %d has no stamp or kind", i)
			} else if idx != int64(i) {
				err = fmt.Errorf("piece frame index %d", idx)
			}
			chain = chainStep(chain, content)
			kind, carry := byte(0xff), 0
			if err == nil {
				kind = content[0]
				if kind == pieceHead {
					c, _ := binary.Uvarint(content[1:])
					carry = int(c)
				}
			}
			head, closes := kind == pieceHead, kind == pieceTail
			if err == nil && !began && (head != (owed > 0) || carry != owed) {
				err = fmt.Errorf("file %d opened with head %v completing %d rows; %d are carried", file, head, carry, owed)
			}
			if err != nil || stamp != chain || m.at.chain != chain || file >= len(files) ||
				m.item.Index != file || m.item.File != files[file] || closes != (m.item.Tail != nil) ||
				head != (m.item.Head != nil) || (kind == pieceBatch) != (m.item.Batch != nil) || m.item.Carry != carry {
				t.Fatalf("delivered piece %d of file %d unverified: kind %d (%v), stamp %#x, chain %#x, reported %#x as file %d %q",
					i, file, kind, err, stamp, chain, m.at.chain, m.item.Index, m.item.File)
			}
			switch {
			case head:
				owed = (carry + m.item.Head.Rows()) % spec.BatchSize
			case !began:
				owed = 0
			}
			began = !closes
			if closes {
				owed = (owed + m.item.Tail.Rows()) % spec.BatchSize
				file++
			}
		}
	})
}

// TestClientReceiveRecordedStreams: the fuzz harness's ground truth — a
// recorded real stream, aligned or carrying rows into its files, delivers
// every piece and ends in io.EOF; each corruption the seed corpus carries
// ends it early with an error; and the control frames follow the protocol's
// table: an empty drain is recorded and the stream runs on to its end, a
// drain with a payload and the retired frames (0x12, 0x16, 0x19) are
// protocol errors that name what arrived.
func TestClientReceiveRecordedStreams(t *testing.T) {
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	files := allFiles(t, env)
	for _, rs := range []reader.Spec{alignedSpec(), misalignedSpec()} {
		spec := dpp.Spec{Spec: rs, Files: files}
		count := func(data []byte) (int, error, bool) {
			items, end, drained := runReceive(t, data, spec)
			return len(items), end, drained
		}
		real := recordStream(t, h.addr, spec)
		first := len(splitFrames(t, real)[0])
		total, end, _ := count(real)
		if end != io.EOF || total < 2 {
			t.Fatalf("batch size %d: recorded stream delivered %d items to %v, want several to io.EOF", rs.BatchSize, total, end)
		}
		swapped := append([]byte(nil), real...)
		swapped[first+first/2] ^= 0x40 // inside the second frame's content
		// after splices one control frame in behind the first item.
		after := func(typ byte, payload string) []byte {
			return slices.Concat(real[:first], controlFrame(typ, payload), real[first:])
		}
		bare, skips, late := forgedUnitStreams(t, real, spec)
		for name, tc := range map[string]struct {
			data    []byte
			want    int
			says    string // what the terminal error must say; "" for any error but EOF
			drained bool
		}{
			"truncated":                      {real[:first+first/2], 1, "", false},
			"out of order":                   {real[first:], 0, "", false},
			"chain swap":                     {swapped, 1, "", false},
			"drain":                          {after(frameDrain, ""), total, "EOF", true},
			"drain with payload":             {after(frameDrain, `{"token":"t","offset":1}`), 1, "drain frame with a 24-byte payload", false},
			"retired extend":                 {after(0x19, `{"files":["landed"]}`), 1, "unexpected frame 0x19", false},
			"retired stats":                  {after(0x12, ""), 1, "unexpected frame 0x12", false},
			"retired file-unit":              {after(0x16, ""), 1, "unexpected frame 0x16", false},
			"closing record with no batches": {bare, 1, "EOF", false},
			"closing record index skips":     {skips, 0, "piece frame index 1, want 0", false},
			"batch frame after eof":          {late, total, "EOF", false},
		} {
			n, end, drained := count(tc.data)
			if n != tc.want || end == nil || !strings.Contains(end.Error(), tc.says) || (tc.says == "" && end == io.EOF) || drained != tc.drained {
				t.Fatalf("batch size %d %s: delivered %d items to %v (drain recorded: %v), want %d and an error saying %q (drain recorded: %v)",
					rs.BatchSize, name, n, end, drained, tc.want, tc.says, tc.drained)
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
