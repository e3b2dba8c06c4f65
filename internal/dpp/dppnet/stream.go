package dppnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dpp"
	"repro/internal/reader"
)

// cursor is where a unit stream stands: the piece frames before it, the
// rolling hash after the last of them, the files closed so far, whether the
// next one has begun, and the rows of the straddling batch. Between files,
// owed is the carry the next file is entered with — its head's — or -1
// when the client cannot know it (the next file it is served is not the
// next of the plan); inside a file it is the rows the straddling batch holds
// once the file's head is in, what its tail is carried out on top of.
type cursor struct {
	frames int64
	chain  uint64
	files  int
	inFile bool
	owed   int
}

// remoteMsg is one received piece handed from the connection reader to
// next: a decoded piece the stream verified, with the cursor after it, or
// the terminal error (io.EOF for a clean end).
type remoteMsg struct {
	item dpp.UnitPiece
	at   cursor
	err  error
}

// RemoteUnitSession is the client half of one remote session: the unit
// stream a server serves every session as (dpp.Service.OpenUnits over the
// wire). Everything that is per-connection or per-cursor lives here once.
// NextPiece is single-consumer; Close may race it from another goroutine.
//
// A drain frame is recorded (Drained), never acted on: the server keeps
// serving after it. A fleet's pump reads the record at each closing record
// and moves the files it has not been served to another shard, so nothing
// already served is ever refetched; a consumer with nowhere else to go rides
// the drain out.
//
// Under a Client.Resume policy the stream is not connection-bound: when
// the transport dies, next transparently redials with the session's resume
// token and consumed offset, and the continued stream is verified
// frame-by-frame against the rolling chain hash — a resumed stream that
// diverges anywhere from the uninterrupted one fails loudly at the first
// divergent frame. Reconnect runs on the consumer goroutine, inside next:
// one redial sequence per lost connection, driven only when the consumer
// actually wants the next piece, so an abandoned session never redials.
type RemoteUnitSession struct {
	client *Client
	ws     *wireSpec
	window int
	// serves are the indices of the plan the stream was asked for, none for
	// every file; files names what arrives by its subset index when the
	// client owns the list, which is then as long as the stream — nil when
	// the list can grow or is the server's to resolve.
	serves   []int
	files    []string
	batch    int
	consumed []string

	// ctx is the Open context: its cancellation tears the session down as
	// Close would, and is the outcome the stream then reports.
	ctx  context.Context
	done chan struct{}

	wmu sync.Mutex // serializes credit/close/end-follow frame writes

	// rng drives backoff jitter; touched only from the consumer goroutine
	// (reconnect runs under next).
	rng *rand.Rand

	// at is the resume cursor: the stream as far as next has returned it.
	// owing is whether the piece at returned last has not been credited
	// back yet. Single-consumer like next itself.
	at           cursor
	owing        bool
	reconnects   atomic.Int64
	tokenResumes atomic.Int64
	replays      atomic.Int64
	drained      atomic.Bool

	mu        sync.Mutex
	conn      net.Conn
	recv      chan remoteMsg
	watchStop func()
	token     string
	stats     dpp.SessionStats
	gotEOF    bool
	closed    bool
	termErr   error
}

// OpenUnits opens a unit stream on the remote service serving the files of
// spec's plan at the indices serves names, strictly increasing — or, with
// serves empty, every file of the plan, those a Follow spec's tail lands
// included. Each file's head, batches and closing record arrive strictly in
// that order, a file's first batch while the server is still reading the
// file. This is how the fleet multiplexer (dppshard) consumes a shard and a
// RemoteSession's cutter its server.
//
// Served indices name files of spec.Files — the fleet's global file list —
// so a client naming them must own the list. The server plans the whole
// list, so each served file is cut for the rows every file before it
// carries in, served here or not, and a carried-into file's head says how
// many those are. The credit window counts piece frames in flight —
// heads, batches and closing records alike — and is spec.Window(), the
// bound a local session's output buffer has. Resume, under the client's
// policy, counts the same frames and verifies the continued stream with the
// chain hash.
func (c *Client) OpenUnits(ctx context.Context, spec dpp.Spec, serves []int) (*RemoteUnitSession, error) {
	st, err := newUnitStream(ctx, c, spec, serves)
	if err != nil {
		return nil, err
	}
	if err := st.connect(ctx, ""); err != nil {
		return nil, err
	}
	// Minted after the handshake: a refused open consumes no ordinal.
	st.rng = jitterRNG(c.sessionSeq.Add(1))
	return st, nil
}

// newUnitStream is the stream OpenUnits connects, at its start.
func newUnitStream(ctx context.Context, c *Client, spec dpp.Spec, serves []int) (*RemoteUnitSession, error) {
	if err := checkServes(serves, len(spec.Files)); err != nil {
		return nil, err
	}
	ws, err := encodeSpec(spec)
	if err != nil {
		return nil, err
	}
	st := &RemoteUnitSession{client: c, ws: ws, window: spec.Window(), serves: serves,
		batch: spec.BatchSize, consumed: spec.ConsumedFeatures(), ctx: ctx, done: make(chan struct{})}
	switch {
	case len(serves) > 0:
		st.files = make([]string, len(serves))
		for i, at := range serves {
			st.files[i] = spec.Files[at]
		}
	case !spec.Follow:
		st.files = spec.Files
	}
	st.at = cursor{chain: chainSeed, owed: st.owedAt(0, 0)}
	return st, nil
}

// owedAt is the carry served file i is entered with, carry the rows carried
// out of the file served before it: known when that one is the file before
// it in the plan, or i is the plan's first; -1 otherwise.
func (st *RemoteUnitSession) owedAt(i, carry int) int {
	prev := -1
	if i > 0 && len(st.serves) > 0 {
		prev = st.serves[i-1]
	}
	if len(st.serves) == 0 || i < len(st.serves) && st.serves[i] == prev+1 {
		return carry
	}
	return -1
}

// decode verifies one piece frame of the stream at cursor at and decodes
// the piece it carries. What the frame says ahead of its body is held to
// the stream before anything is sized: its index must be the next one, its
// kind known, a head's carry 1 to the batch size less one, its stamped chain
// the stream's; and the stream's state refuses a frame past the last file,
// a head inside a file that has begun or completing another carry than the
// stream holds, and a batch or closing record where the stream owes a head.
// Then the body is decoded by kind, and bytes after it are refused.
func (st *RemoteUnitSession) decode(payload []byte, at cursor) (dpp.UnitPiece, cursor, error) {
	p := dpp.UnitPiece{Index: at.files}
	idx, n := binary.Uvarint(payload)
	if n <= 0 || idx != uint64(at.frames) {
		return p, at, fmt.Errorf("dppnet: piece frame index %d, want %d", idx, at.frames)
	}
	if len(payload) < n+9 {
		return p, at, fmt.Errorf("dppnet: piece frame %d truncated before its kind", idx)
	}
	stamp, hashed := binary.BigEndian.Uint64(payload[n:]), payload[n+8:]
	kind, body := hashed[0], hashed[1:]
	carry := 0
	switch kind {
	case pieceBatch, pieceTail:
	case pieceHead:
		c, m := binary.Uvarint(body)
		if m <= 0 || c == 0 || c >= uint64(st.batch) {
			return p, at, fmt.Errorf("dppnet: a head of file %d completing %d rows of a %d-row batch", at.files, c, st.batch)
		}
		carry, body = int(c), body[m:]
	default:
		return p, at, fmt.Errorf("dppnet: unknown piece kind %d", kind)
	}
	if st.files != nil {
		if at.files >= len(st.files) {
			return p, at, fmt.Errorf("dppnet: piece frame after the last of %d files", len(st.files))
		}
		p.File = st.files[at.files]
	}
	switch {
	case at.inFile && carry > 0:
		return p, at, fmt.Errorf("dppnet: head of file %d after the file began", at.files)
	case at.inFile:
	case carry == 0 && at.owed > 0:
		return p, at, fmt.Errorf("dppnet: piece kind %d where file %d owes a head completing %d rows", kind, at.files, at.owed)
	case carry > 0 && at.owed >= 0 && carry != at.owed:
		return p, at, fmt.Errorf("dppnet: head of file %d completes %d carried rows, the stream carries %d", at.files, carry, at.owed)
	default:
		at.inFile, at.owed = true, carry
	}
	if at.chain = chainStep(at.chain, hashed); at.chain != stamp {
		return p, at, fmt.Errorf("dppnet: stream hash mismatch at piece frame %d", idx)
	}
	at.frames++
	if kind == pieceBatch {
		var rest []byte
		var err error
		if p.Batch, rest, err = reader.DecodeBatchFrom(body); err == nil && len(rest) != 0 {
			err = fmt.Errorf("%d trailing bytes after the batch", len(rest))
		}
		if err != nil {
			return p, at, fmt.Errorf("dppnet: corrupt batch piece: %w", err)
		}
		return p, at, nil
	}
	rows, err := decodeRows(body, st.consumed)
	if err != nil {
		return p, at, err
	}
	at.owed = (at.owed + rows.Rows()) % st.batch
	if kind == pieceHead {
		p.Head, p.Carry = rows, carry
		return p, at, nil
	}
	p.Tail = rows
	at.files, at.inFile = at.files+1, false
	at.owed = st.owedAt(at.files, at.owed)
	return p, at, nil
}

// connect performs one handshake — the first, or a resume presenting the
// consumed cursor and (optionally) the token — and, on success, installs
// the new connection and a fresh receiver continuing at the cursor. A
// session is resumable exactly when its client would resume it.
func (st *RemoteUnitSession) connect(ctx context.Context, token string) error {
	conn, br, stop, ok, err := st.client.openStream(ctx, openRequest{
		Kind: kindSession, Window: st.window, Spec: st.ws, Serves: st.serves,
		Resumable: st.client.Resume.MaxAttempts > 0, Offset: st.at.frames, Token: token,
	})
	if err != nil {
		return err
	}
	// One slot past the credit window: a protocol-conformant server never
	// has more than `window` undelivered pieces buffered here, so the extra
	// slot guarantees the receiver's single terminal message always fits —
	// an abandoned session (Open ctx cancelled, no Close, no Next) cannot
	// strand the receive goroutine on a full channel.
	recv := make(chan remoteMsg, st.window+1)
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		stop()
		conn.Close()
		return dpp.ErrClosed
	}
	old := st.conn
	st.conn, st.recv, st.watchStop, st.token = conn, recv, stop, ok.Token
	st.mu.Unlock()
	if old != nil {
		old.Close()
	}
	// A new connection starts with a whole window: nothing is owed on it.
	st.owing = false
	if token != "" {
		st.tokenResumes.Add(1)
	} else if st.at.frames > 0 {
		st.replays.Add(1)
	}
	go st.receive(br, recv, stop, st.at)
	return nil
}

// receive owns one connection's read half: it decodes frames into the
// bounded recv channel (never blocking the socket beyond the credit
// window, which caps in-flight pieces below the channel's capacity) and
// terminates with exactly one terminal message. Every piece frame goes
// through decode, which must find the next expected index and a stamped
// chain equal to the locally recomputed one — so a buggy or hostile resume
// can never splice a divergent, misordered or aliased stream in silently.
// Terminal sends bail out on done so even a misbehaving server that
// overfills the window cannot strand the receiver once Close runs.
func (st *RemoteUnitSession) receive(br *bufio.Reader, recv chan remoteMsg, stop func(), at cursor) {
	defer close(recv)
	defer stop() // this connection's stream has ended; release its watcher
	terminal := func(err error) {
		select {
		case recv <- remoteMsg{err: err}:
		case <-st.done:
		}
	}
	// One frame buffer per connection: every decoder below copies what it
	// keeps out of the payload, so the next frame may overwrite it.
	var buf []byte
	for {
		typ, payload, err := readFrameInto(br, maxFrameBytes, &buf)
		if err != nil {
			if cerr := st.ctx.Err(); cerr != nil {
				// The Open context's watcher closed the connection: that is
				// a teardown, not a transport loss to reconnect across.
				terminal(cerr)
			} else {
				terminal(fmt.Errorf("%w: %v", errConnLost, err))
			}
			return
		}
		switch typ {
		case framePiece:
			var p dpp.UnitPiece
			if p, at, err = st.decode(payload, at); err != nil {
				terminal(err)
				return
			}
			select {
			case recv <- remoteMsg{item: p, at: at}:
			case <-st.done:
				return
			}
		case frameEOF:
			stats, err := decodeSessionStats(payload)
			if err != nil {
				terminal(fmt.Errorf("dppnet: corrupt eof frame: %w", err))
				return
			}
			st.mu.Lock()
			st.stats, st.gotEOF = stats, true
			st.mu.Unlock()
			terminal(io.EOF)
			return
		case frameDrain:
			if len(payload) != 0 {
				terminal(fmt.Errorf("dppnet: drain frame with a %d-byte payload", len(payload)))
				return
			}
			// Recorded, not acted on: the server keeps serving until the
			// operator's deadline.
			st.drained.Store(true)
		case frameError:
			terminal(fmt.Errorf("%w: %s", ErrRemote, payload))
			return
		default:
			terminal(fmt.Errorf("dppnet: unexpected frame %#x", typ))
			return
		}
	}
}

// NextPiece returns the stream's next piece, blocking until one arrives
// over the wire, the scan is exhausted (io.EOF), the server reports an
// error (wrapped in ErrRemote), the connection fails, ctx is cancelled
// (ctx.Err()), or the session is closed (dpp.ErrClosed) — the contract of a
// local UnitSession.NextPiece. A piece's window credit goes back to the
// server when the next one is asked for: a consumer that holds a piece
// holds its slot of the window, so the pieces in its hands and in flight
// together never exceed it. Under a resume policy, a failed connection is
// redialed here instead of surfacing; after the end, the recorded outcome
// repeats.
func (st *RemoteUnitSession) NextPiece(ctx context.Context) (dpp.UnitPiece, error) {
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return dpp.UnitPiece{}, dpp.ErrClosed
		}
		if st.termErr != nil {
			err := st.termErr
			st.mu.Unlock()
			return dpp.UnitPiece{}, err
		}
		recv := st.recv
		st.mu.Unlock()
		if st.owing {
			st.owing = false
			st.send(oneCredit)
		}

		select {
		case m, ok := <-recv:
			if !ok {
				// The receiver already delivered its terminal error; this is
				// a next after the end. Replay the recorded outcome.
				st.mu.Lock()
				defer st.mu.Unlock()
				if st.closed {
					return dpp.UnitPiece{}, dpp.ErrClosed
				}
				if st.termErr != nil {
					return dpp.UnitPiece{}, st.termErr
				}
				return dpp.UnitPiece{}, io.EOF
			}
			if m.err == nil {
				st.at, st.owing = m.at, true
				return m.item, nil
			}
			resumeCut := false
			if errors.Is(m.err, errConnLost) && st.client.Resume.MaxAttempts > 0 {
				rerr := st.reconnect(ctx)
				if rerr == nil {
					st.reconnects.Add(1)
					continue
				}
				if rerr != ctx.Err() {
					m.err = rerr
				} else {
					// A reconnect cut short by ctx keeps the transport
					// loss as the recorded outcome but reports the
					// cancellation to this caller.
					resumeCut = true
				}
			}
			st.mu.Lock()
			closed := st.closed
			if st.termErr == nil {
				st.termErr = m.err
			}
			st.mu.Unlock()
			if closed && m.err != io.EOF {
				// Teardown races a connection error; Close semantics win.
				return dpp.UnitPiece{}, dpp.ErrClosed
			}
			if resumeCut {
				return dpp.UnitPiece{}, ctx.Err()
			}
			return dpp.UnitPiece{}, m.err
		case <-ctx.Done():
			return dpp.UnitPiece{}, ctx.Err()
		case <-st.done:
			return dpp.UnitPiece{}, dpp.ErrClosed
		}
	}
}

// reconnect redials the session under the client's resume policy: first
// presenting the resume token (continuing parked server state with no
// re-decoding), falling back to a token-less offset replay when the
// server refuses the token, and backing off exponentially — with
// downward jitter, so a fleet of sessions dropped by one restart doesn't
// re-arrive in lockstep — between transport failures. A server refusal
// of the replay itself is terminal.
func (st *RemoteUnitSession) reconnect(ctx context.Context) error {
	pol := st.client.Resume.normalized()
	st.mu.Lock()
	token := st.token
	st.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(pol.backoff(attempt, st.rng)):
			case <-ctx.Done():
				return ctx.Err()
			case <-st.done:
				return dpp.ErrClosed
			}
		}
		err := st.connect(ctx, token)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrRemote) && token != "" {
			// The parked state is gone (expired, evicted, or claimed):
			// fall back to a fresh session replayed to our offset.
			token = ""
			if err = st.connect(ctx, ""); err == nil {
				return nil
			}
		}
		if errors.Is(err, ErrRemote) || errors.Is(err, dpp.ErrClosed) || ctx.Err() != nil {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("dppnet: resume failed after %d attempts: %w", pol.MaxAttempts, lastErr)
}

// The frames a client sends after its handshake, whole: one window credit
// (payload length 1, the uvarint 1) — written once per piece consumed — and
// the two that are a type and an empty payload.
var (
	oneCredit      = []byte{frameCredit, 1, 1}
	closeFrame     = []byte{frameClose, 0}
	endFollowFrame = []byte{frameEndFollow, 0}
)

// send writes one client→server control frame on the current connection.
// A write failure means the connection is already dead; the receiver
// surfaces that as the terminal error, so it is not reported here.
func (st *RemoteUnitSession) send(frame []byte) {
	st.mu.Lock()
	conn := st.conn
	st.mu.Unlock()
	st.wmu.Lock()
	defer st.wmu.Unlock()
	_, _ = conn.Write(frame)
}

// Drained reports whether the server has sent this stream a drain frame:
// it is shutting down gracefully and admits no new session, though it goes
// on serving this one.
func (st *RemoteUnitSession) Drained() bool { return st.drained.Load() }

// Reconnects reports how many times this session resumed over a new
// connection.
func (st *RemoteUnitSession) Reconnects() int64 { return st.reconnects.Load() }

// Stats returns the session's final accounting as reported by the server
// in the eof frame. It reports ok exactly when that frame arrived: once the
// stream has returned io.EOF, and never before or after a failure.
func (st *RemoteUnitSession) Stats() (dpp.SessionStats, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats, st.gotEOF
}

// Close tears the remote session down: a best-effort close frame, then
// the connection. Idempotent; always returns nil, like a local session's
// Close. Pieces already returned remain valid.
func (st *RemoteUnitSession) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.closed = true
	conn, recv, stop := st.conn, st.recv, st.watchStop
	st.mu.Unlock()
	close(st.done)
	stop()
	st.send(closeFrame)
	conn.Close()
	// Drain the receiver so it observes the connection close and exits;
	// its terminal message is surfaced as ErrClosed by later nexts.
	for range recv {
	}
	return nil
}
