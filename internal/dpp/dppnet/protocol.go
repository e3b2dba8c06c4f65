// Package dppnet serves dpp preprocessing sessions over TCP — the
// paper's actual deployment shape, where the DPP workers are a fleet of
// processes feeding trainers over the network rather than a library
// linked into the training job (§2.1).
//
// The protocol is a length-prefixed frame stream over one TCP connection
// per session. A connection opens with a fixed magic + version, then a
// JSON handshake frame carrying the dpp.Spec (transforms encoded by
// name + parameters) and the client's receive window. After the server
// acks, the session's unit stream flows server→client as piece frames:
// per file, in file-list order, the file's head when rows are carried into
// it, its complete batches in the reader.Batch wire codec, each as the
// server cuts it, and a closing record with the tail rows — followed by an
// eof frame carrying the session's dpp.SessionStats; errors travel as error
// frames in either direction of the session's life.
//
// There is one stream kind. The server opens every session as a
// dpp.UnitSession, and the client does the cutting: a RemoteSession
// (Client.Open) is a fleet of one, the unit stream of every file of the
// plan joined into batches by the reader's one cutter on the client, as a
// fleet session (dppshard) joins the unit streams of its shards. The client
// half is written once (stream.go, RemoteUnitSession): receive, reconnect,
// credit and close.
//
// Backpressure is a credit window, not just TCP buffering: the server
// may have at most `window` unacknowledged piece frames in flight and
// blocks — without pulling further pieces from the underlying session,
// so the session's own Buffer backpressure composes — until the client
// returns credits as it consumes. Cancellation is prompt in both
// directions: a client that closes (or whose Open context is cancelled)
// tears down the server-side session via the connection, and a dying
// server surfaces as an error from the remote session's Next, never a
// hang.
//
// The remote session (Client.Open) satisfies dpp.Stream, and its batch
// stream and deterministic stats — the server's eof plus the client
// cutter's work — are byte-identical to a local session with the same spec,
// pinned under -race by TestRemoteSessionMatchesLocal. A unit stream serves
// a file while it is computed: each batch leaves as a piece frame as it is
// cut, and the rows only the client can place — the file's head, which
// names the carry it completes, and the tail that closes it — travel in
// the same frame under another kind byte.
// A server additionally answers "statsz" handshakes with the service's
// aggregate dpp.Stats (Client.ServiceStats), the wire form of /statsz,
// and "tablez" handshakes with the served table's metadata (schema
// width, file plan, derived spec) so trainers can start cold from the
// wire (Client.Tablez).
//
// Sessions are resumable objects, not connection-scoped ones: a
// resumable handshake returns an opaque token in ok, every piece frame is
// stamped with its stream index and a rolling XXH64 chain hash, and a
// reconnecting client presents (token, consumed offset) to continue
// byte-where-it-left-off. The server parks the live session state of a
// dropped resumable connection in a bounded, TTL-evicted table; when the
// token has expired it replays the deterministic stream to the offset
// instead (cheap against a warm ScanCache). The chain hash makes a resumed
// stream *verified* identical to the uninterrupted one, not just trusted.
package dppnet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/dpp"
	"repro/internal/tensor"
)

// Connection preamble: magic + one version byte, written by the client
// before its handshake frame. The version names the whole wire contract —
// the frame set, every payload layout, the stream hash — and exactly one is
// spoken: no codec branches on it. A peer of any other version is answered
// with an error frame, whose framing has not changed since version 1, so a
// mixed-version pair never handshakes and then mis-decodes the stream.
const (
	protoMagic   = "DPPN"
	protoVersion = 14
)

// versionRefusal is what a client speaking version v is told. It is the
// registry of every version this protocol has had: the one spoken is
// protoVersion, and each retired one keeps a line saying what retired it,
// so that removing wire surface stays an explicit act with a message
// attached.
func versionRefusal(v byte) error {
	var retiredBy string
	switch {
	case v <= 6:
		// v2 stats scheduler block, v3 file units, v4 resume and the
		// chain stamp, v5 tenants and drain, v6 live tailing.
		retiredBy = "v7 changed the stream hash"
	case v == 7:
		retiredBy = "v8 retired the extend frame, emptied the drain frame and ships the file-unit tail as columns"
	case v == 8:
		retiredBy = "v9 ships a unit stream's batches as batch frames ahead of the file-unit frame, which now only closes the file"
	case v == 9:
		retiredBy = "v10 opens a unit stream on the global file list and the indices it serves, names their carries in ok, and ships a carried-into file's head in a file-unit frame"
	case v == 10:
		retiredBy = "v11 ships a file unit's rows without their row keys"
	case v == 11:
		retiredBy = "v12 serves every session as a unit stream cut by the client, and a file-unit head names the carry it completes"
	case v == 12:
		retiredBy = "v13 writes every integer block of a batch or chunk at the width its span needs, and a jagged tensor's offsets as row lengths"
	case v == 13:
		retiredBy = "v14 ships a unit stream's batches, heads and tails as one stamped piece frame, and the eof frame carries the session stats"
	default:
		return fmt.Errorf("dppnet: protocol v%d is newer than this server's v%d; upgrade the server", v, protoVersion)
	}
	return fmt.Errorf("dppnet: protocol v%d retired: %s; rebuild the client for v%d", v, retiredBy, protoVersion)
}

// Frame types. Client→server frames are small control messages; all bulk
// payload flows server→client.
const (
	// frameOpen carries the JSON openRequest (client→server, first frame).
	frameOpen = byte(0x01)
	// frameCredit returns receive-window credits (client→server); payload
	// is a uvarint credit count.
	frameCredit = byte(0x02)
	// frameClose requests session teardown (client→server); empty payload.
	frameClose = byte(0x03)

	// frameOK acknowledges a successful session handshake; payload is the
	// JSON okReply, empty when it has nothing to say.
	frameOK = byte(0x10)
	// framePiece carries one piece of the unit stream — a batch, a file's
	// head or its closing record — stamped with its stream index and the
	// rolling chain hash (unitwire.go, sealFrame).
	framePiece = byte(0x11)
	// frameRetiredStats carried a session's stats ahead of the eof frame
	// until v13; the eof frame carries them since. The number stays
	// reserved, as frameExtend's does.
	frameRetiredStats = byte(0x12) // retired
	// frameEOF marks a cleanly exhausted scan; its payload is the
	// session's final dpp.SessionStats (appendSessionStats: the reader,
	// cache and scheduler counters as uvarints).
	frameEOF = byte(0x13)
	// frameError carries a UTF-8 error message and ends the stream.
	frameError = byte(0x14)
	// frameSvcStats answers a statsz handshake with JSON dpp.Stats.
	frameSvcStats = byte(0x15)
	// frameRetiredUnit carried a unit stream's heads and closing records
	// until v13, beside the batch frame; the piece frame carries both
	// since. The number stays reserved.
	frameRetiredUnit = byte(0x16) // retired
	// frameTablez answers a tablez handshake with the JSON TableMeta of
	// the served table: name, dense width, file plan per partition, and
	// the derived spec — everything a trainer needs to start cold.
	frameTablez = byte(0x17)
	// frameDrain (server→client, empty payload) tells a still-active
	// session that the server is draining. The server keeps serving after
	// sending it, and the client records it (RemoteUnitSession.Drained):
	// a fleet multiplexer moves the files it has not been served to
	// another shard at the next file boundary, a consumer with nowhere
	// else to go rides the drain out.
	frameDrain = byte(0x18)
	// frameExtend announced a Follow session's newly landed files in v6
	// and v7; no client ever acted on it. The number stays reserved so
	// that it is never reused: a peer that receives it fails as on any
	// unknown frame.
	frameExtend = byte(0x19) // retired
	// frameEndFollow (client→server, empty payload) ends a Follow
	// session's tail: the server stops observing the catalog, drains the
	// already-announced files, and finishes the stream with the usual
	// eof frame.
	frameEndFollow = byte(0x1a)
)

// maxFrameBytes bounds a batch-bearing (server→client) frame's declared
// payload length; maxControlFrameBytes bounds the client→server control
// frames (handshake with its spec and file list, credits, close), which
// are orders of magnitude smaller. A peer announcing more is
// protocol-corrupt and fails before any payload is read. Within the
// bound, readFrameInto allocates by tensor.ReadInto's rule, as bytes
// actually arrive, so a forged length prefix with no payload behind it
// costs a peer at most one chunk — never the declared size.
const (
	maxFrameBytes        = 1 << 28
	maxControlFrameBytes = 1 << 22
)

// openRequest is the JSON handshake payload.
type openRequest struct {
	// Kind selects the conversation: "session" streams Spec's unit stream;
	// "statsz" returns the service's aggregate stats and closes;
	// "tablez" returns the served table's metadata and closes.
	Kind string `json:"kind"`
	// Window is the client's receive window in piece frames (session
	// kind).
	Window int `json:"window,omitempty"`
	// Spec is the wire form of the dpp.Spec to open (session kind).
	Spec *wireSpec `json:"spec,omitempty"`
	// Serves are the indices into Spec.Files — the fleet's global file
	// list — of the files the stream serves, strictly increasing; empty
	// serves every file of the plan. The server plans the whole list, so
	// each served file is cut for the rows every file before it carries in,
	// wherever those are served.
	Serves []int `json:"serves,omitempty"`
	// Resumable asks the server to issue a resume token in ok and to
	// park this session's live state if the connection drops without a
	// close frame.
	Resumable bool `json:"resumable,omitempty"`
	// Offset is the number of piece frames the client has already
	// consumed: the server starts
	// the stream at this index, either by continuing parked state (Token
	// set) or by replaying the deterministic prefix.
	Offset int64 `json:"offset,omitempty"`
	// Token is the opaque resume token from a previous ok reply;
	// presenting it claims the parked session it names.
	Token string `json:"token,omitempty"`
	// AuthToken identifies the tenant to a server running a front door
	// (recd-serve -tenants): the server's Authenticator maps it to a
	// tenant name before any session state is allocated. Servers without
	// a front door ignore it; servers with one refuse handshakes whose
	// token matches no tenant. The tenant itself never travels on the
	// wire — it is derived server-side, so a client cannot claim one.
	AuthToken string `json:"auth_token,omitempty"`
}

const (
	kindSession = "session"
	kindStatsz  = "statsz"
	kindTablez  = "tablez"
)

// Bounds on the hostile-input surface of the resume handshake: no real
// stream reaches 2^40 frames, and tokens the server mints are 32 hex
// characters — anything larger is forged and is rejected at decode,
// before any allocation or table lookup scales with it.
const (
	maxResumeOffset   = int64(1) << 40
	maxResumeTokenLen = 64
)

// maxAuthTokenLen bounds the handshake's tenant token: real deployments
// use short static tokens, so anything larger is hostile and is
// rejected at decode, before the authenticator sees it.
const maxAuthTokenLen = 256

// decodeOpenRequest parses and validates a handshake payload. All
// adversarial checks that don't need server state live here — negative
// or overflowing offsets, oversized tokens and served indices that are not
// an increasing subset of the file list fail cleanly — so the whole hostile
// surface is one fuzzable function (FuzzDecodeResumeHandshake).
func decodeOpenRequest(payload []byte) (openRequest, error) {
	var req openRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		return openRequest{}, fmt.Errorf("dppnet: handshake: %w", err)
	}
	if req.Offset < 0 || req.Offset > maxResumeOffset {
		return openRequest{}, fmt.Errorf("dppnet: handshake offset %d out of range", req.Offset)
	}
	if len(req.Token) > maxResumeTokenLen {
		return openRequest{}, fmt.Errorf("dppnet: handshake token of %d bytes exceeds limit %d", len(req.Token), maxResumeTokenLen)
	}
	if len(req.AuthToken) > maxAuthTokenLen {
		return openRequest{}, fmt.Errorf("dppnet: handshake auth token of %d bytes exceeds limit %d", len(req.AuthToken), maxAuthTokenLen)
	}
	files := 0
	if req.Spec != nil {
		files = len(req.Spec.Files)
	}
	if err := checkServes(req.Serves, files); err != nil {
		return openRequest{}, err
	}
	return req, nil
}

// checkServes holds a stream's served indices to what the stream needs:
// strictly increasing, each inside the files; none serves them all.
func checkServes(serves []int, files int) error {
	for i, at := range serves {
		if at < 0 || at >= files || (i > 0 && at <= serves[i-1]) {
			return fmt.Errorf("dppnet: served index %d is not an increasing index of %d files", at, files)
		}
	}
	return nil
}

// okReply is the JSON payload of a session ok frame. It is empty for a
// session that cannot resume.
type okReply struct {
	// Token names the server-side resumable state for this session;
	// present only when the handshake asked for a resumable session.
	Token string `json:"token,omitempty"`
}

func decodeOKReply(payload []byte) (okReply, error) {
	var ok okReply
	if len(payload) == 0 {
		return ok, nil
	}
	if err := json.Unmarshal(payload, &ok); err != nil {
		return okReply{}, fmt.Errorf("dppnet: ok payload: %w", err)
	}
	if len(ok.Token) > maxResumeTokenLen {
		return okReply{}, fmt.Errorf("dppnet: ok token of %d bytes exceeds limit %d", len(ok.Token), maxResumeTokenLen)
	}
	return ok, nil
}

// writeFrame emits one framed message: type byte, uvarint payload
// length, payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [1 + binary.MaxVarintLen64]byte
	hdr[0] = typ
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one framed message whose declared payload length is
// within limit into a buffer of its own.
func readFrame(r tensor.ByteReader, limit uint64) (byte, []byte, error) {
	var buf []byte
	return readFrameInto(r, limit, &buf)
}

// readFrameInto is readFrame into *buf's storage: the returned payload
// aliases it and is valid until the buffer's next use. The payload is read
// by tensor.ReadInto, the codec's length rule: a frame that fits is read in
// place and costs no allocation, and a forged length never costs more than
// one chunk beyond the bytes behind it.
func readFrameInto(r tensor.ByteReader, limit uint64, buf *[]byte) (byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, fmt.Errorf("dppnet: frame length: %w", err)
	}
	if n > limit {
		return 0, nil, fmt.Errorf("dppnet: frame of %d bytes exceeds limit %d", n, limit)
	}
	payload, err := tensor.ReadInto(r, buf, int(n))
	if err != nil {
		return 0, nil, fmt.Errorf("dppnet: frame body: %w", err)
	}
	return typ, payload, nil
}

// maxWireWorkers caps the decoded scheduler Workers field: no
// conceivable pool is wider, so anything larger is a corrupt or forged
// frame, rejected before it can reach capacity planning downstream.
const maxWireWorkers = 1 << 20

// statsMagic opens an eof frame's payload.
const statsMagic = "RSTS"

// statsFields enumerates every counter of an eof frame in wire order: the
// reader's three stage times (nanoseconds) and six work counters, the
// scan-cache counters, then the scheduler block (pool size, resize counts,
// and the two starvation stalls in nanoseconds) — the credit-window
// starvation a trainer reads back to see how the service scaled its
// session. All are non-negative by construction, so they travel as
// uvarints; workers is the pool size, which a decoder bounds on its own.
func statsFields(st *dpp.SessionStats, workers *int64) [16]*int64 {
	r, sc := &st.Reader, &st.Scheduler
	return [16]*int64{
		(*int64)(&r.FillTime), (*int64)(&r.ConvertTime), (*int64)(&r.ProcessTime),
		&r.ReadBytes, &r.SentBytes,
		&r.RowsDecoded, &r.BatchesProduced, &r.ConvertValues, &r.ProcessOps,
		&st.Cache.Hits, &st.Cache.Misses,
		workers, &sc.ScaleUps, &sc.ScaleDowns,
		(*int64)(&sc.WorkerStall), (*int64)(&sc.ConsumerStall),
	}
}

// appendSessionStats appends a session's final accounting, the payload of
// its eof frame, to dst.
func appendSessionStats(dst []byte, st dpp.SessionStats) []byte {
	workers := int64(st.Scheduler.Workers)
	dst = append(dst, statsMagic...)
	for _, f := range statsFields(&st, &workers) {
		dst = binary.AppendUvarint(dst, uint64(*f))
	}
	return dst
}

// decodeSessionStats reads what appendSessionStats wrote, bounding every
// counter at decode time: truncated frames fail cleanly, forged counts
// and overflowed durations are rejected rather than wrapped into
// negative accounting.
func decodeSessionStats(payload []byte) (dpp.SessionStats, error) {
	d := tensor.NewDecoder(payload)
	magic, err := d.Next(len(statsMagic))
	if err != nil {
		return dpp.SessionStats{}, fmt.Errorf("dppnet: stats magic: %w", err)
	}
	if string(magic) != statsMagic {
		return dpp.SessionStats{}, fmt.Errorf("dppnet: bad stats magic %q", magic)
	}
	var st dpp.SessionStats
	var workers int64
	for _, f := range statsFields(&st, &workers) {
		v, err := d.Uvarint()
		if err != nil {
			return dpp.SessionStats{}, err
		}
		if v > 1<<62 {
			return dpp.SessionStats{}, fmt.Errorf("dppnet: implausible stats counter %d", v)
		}
		*f = int64(v)
	}
	if workers > maxWireWorkers {
		return dpp.SessionStats{}, fmt.Errorf("dppnet: implausible worker count %d", workers)
	}
	st.Scheduler.Workers = int(workers)
	return st, nil
}

// frameReserve is the room a piece frame's buffer keeps in front of its
// content for what can only be written once the content is: the type
// byte, the uvarint payload length, the uvarint stream index and the
// 8-byte chain hash.
const frameReserve = 1 + 2*binary.MaxVarintLen64 + 8

// frame is one piece frame, built in place in a recyclable buffer: the
// content is encoded at buf[frameReserve:], then sealFrame writes the
// header right-aligned against it, so the frame is one slice and goes out
// in one Write with no copy of the content.
type frame struct {
	buf []byte
	// buf[head:] is the frame, buf[body:] its payload (stamp | content).
	head, body int
}

// wire is the frame as written: type | uvarint len | payload.
func (f frame) wire() []byte { return f.buf[f.head:] }

// kind is the piece kind, the content's first byte.
func (f frame) kind() byte { return f.buf[frameReserve] }

// payloadLen is what the transport accounting counts per frame.
func (f frame) payloadLen() int { return len(f.buf) - f.body }

// sealFrame stamps the content at buf[frameReserve:] as a piece frame:
// its payload is uvarint(index) | 8-byte big-endian chain | content, chain
// being the rolling hash *after* folding the content.
func sealFrame(buf []byte, index int64, chain uint64) frame {
	var tmp [binary.MaxVarintLen64]byte
	at := frameReserve - 8
	binary.BigEndian.PutUint64(buf[at:], chain)
	n := binary.PutUvarint(tmp[:], uint64(index))
	at -= n
	copy(buf[at:], tmp[:n])
	f := frame{buf: buf, body: at}
	n = binary.PutUvarint(tmp[:], uint64(f.payloadLen()))
	at -= n
	copy(buf[at:], tmp[:n])
	buf[at-1] = framePiece
	f.head = at - 1
	return f
}

// decodeServiceStats parses a svcstats frame (the JSON dpp.Stats answer
// to a statsz probe) with the same adversarial posture as the binary
// codecs: malformed JSON fails, and negative counters — impossible from
// a well-behaved server, trivially forged otherwise — are rejected
// instead of poisoning downstream rate math.
func decodeServiceStats(payload []byte) (dpp.Stats, error) {
	var st dpp.Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return dpp.Stats{}, err
	}
	for name, v := range map[string]int64{
		"SessionsOpened":          st.SessionsOpened,
		"ActiveSessions":          int64(st.ActiveSessions),
		"BatchesServed":           st.BatchesServed,
		"Cache.Hits":              st.Cache.Hits,
		"Cache.Misses":            st.Cache.Misses,
		"Cache.Evictions":         st.Cache.Evictions,
		"Cache.GhostHits":         st.Cache.GhostHits,
		"Cache.Invalidations":     st.Cache.Invalidations,
		"Cache.Entries":           int64(st.Cache.Entries),
		"Cache.Bytes":             st.Cache.Bytes,
		"SessionErrors":           st.SessionErrors,
		"Scheduler.ScaleUps":      st.Scheduler.ScaleUps,
		"Scheduler.ScaleDowns":    st.Scheduler.ScaleDowns,
		"Scheduler.WorkerStall":   int64(st.Scheduler.WorkerStall),
		"Scheduler.ConsumerStall": int64(st.Scheduler.ConsumerStall),
	} {
		if v < 0 {
			return dpp.Stats{}, fmt.Errorf("dppnet: negative service stat %s = %d", name, v)
		}
	}
	return st, nil
}
