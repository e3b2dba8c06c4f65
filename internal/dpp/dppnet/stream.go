package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dpp"
)

// kind is what a stream kind supplies to the one remote stream client —
// data, not code paths. RemoteSession is the core over a batch stream,
// RemoteUnitSession over a unit stream: batch frames and the file-unit frame
// that closes each file.
type kind[T any] struct {
	// fileUnits is the handshake bit that asks the server for a unit stream.
	fileUnits bool
	// drainSurfaces makes a drain frame end the stream with ErrDrained — at
	// the next file boundary — instead of being advisory: a unit stream's
	// consumer (dppshard) moves the files it has not been served to another
	// shard.
	drainSurfaces bool
	// decode holds the only per-kind logic: refuse a frame type the kind
	// does not carry, split the stamped payload, verify it is the item the
	// stream has at the cursor and that folding it into the chain gives the
	// stamped value, and decode the item. The two stamp layouts
	// (index|chain|batch, chain|unit) never leave it.
	decode func(typ byte, payload []byte, at cursor) (item T, next cursor, err error)
}

// cursor is where a stream stands: the payload frames before it, the rolling
// hash after the last of them and, on a unit stream, the files closed so far
// and whether the next one has begun.
type cursor struct {
	frames int64
	chain  uint64
	files  int
	inFile bool
}

// remoteMsg is one received item handed from the connection reader to
// next: a decoded item the hook verified, with the cursor after it, or the
// terminal error (io.EOF for a clean end).
type remoteMsg[T any] struct {
	item T
	at   cursor
	err  error
}

// stream is the client half of one remote session, whatever it carries:
// everything that is per-connection or per-cursor lives here once.
//
// Under a Client.Resume policy the stream is not connection-bound: when
// the transport dies, next transparently redials with the session's resume
// token and consumed offset, and the continued stream is verified
// frame-by-frame against the rolling chain hash — a resumed stream that
// diverges anywhere from the uninterrupted one fails loudly at the first
// divergent frame. Reconnect runs on the consumer goroutine, inside next:
// one redial sequence per lost connection, driven only when the consumer
// actually wants the next item, so an abandoned session never redials.
type stream[T any] struct {
	client *Client
	kind   kind[T]
	ws     *wireSpec
	window int

	// ctx is the Open context: its cancellation tears the session down as
	// Close would, and is the outcome the stream then reports.
	ctx  context.Context
	done chan struct{}

	wmu sync.Mutex // serializes credit/close/end-follow frame writes

	// rng drives backoff jitter; touched only from the consumer goroutine
	// (reconnect runs under next).
	rng *rand.Rand

	// at is the resume cursor: the stream as far as next has returned it.
	// Single-consumer like next itself.
	at           cursor
	reconnects   atomic.Int64
	tokenResumes atomic.Int64
	replays      atomic.Int64

	mu        sync.Mutex
	conn      net.Conn
	recv      chan remoteMsg[T]
	watchStop func()
	token     string
	stats     dpp.SessionStats
	gotEOF    bool
	closed    bool
	termErr   error
}

// start opens the stream on the client's server. The receive window — how
// many items the server may have in flight ahead of the consumer — is the
// session's backpressure bound, the same spec.Window() a local session
// sizes its output buffer from, so a stalled consumer stalls the
// server-side readers at the bound a local session would.
func (st *stream[T]) start(ctx context.Context, c *Client, spec dpp.Spec, k kind[T]) error {
	ws, err := encodeSpec(spec)
	if err != nil {
		return err
	}
	st.client, st.kind, st.ws, st.window = c, k, ws, spec.Window()
	st.ctx, st.done = ctx, make(chan struct{})
	st.at.chain = chainSeed
	if err := st.connect(ctx, ""); err != nil {
		return err
	}
	// Minted after the handshake: a refused open consumes no ordinal.
	st.rng = jitterRNG(c.sessionSeq.Add(1))
	return nil
}

// connect performs one handshake — the first, or a resume presenting the
// consumed cursor and (optionally) the token — and, on success, installs
// the new connection and a fresh receiver continuing at the cursor. A
// session is resumable exactly when its client would resume it.
func (st *stream[T]) connect(ctx context.Context, token string) error {
	conn, br, stop, newToken, err := st.client.openStream(ctx, openRequest{
		Kind: kindSession, Window: st.window, Spec: st.ws, FileUnits: st.kind.fileUnits,
		Resumable: st.client.Resume.MaxAttempts > 0, Offset: st.at.frames, Token: token,
	})
	if err != nil {
		return err
	}
	// One slot past the credit window: a protocol-conformant server never
	// has more than `window` undelivered items buffered here, so the extra
	// slot guarantees the receiver's single terminal message always fits —
	// an abandoned session (Open ctx cancelled, no Close, no Next) cannot
	// strand the receive goroutine on a full channel.
	recv := make(chan remoteMsg[T], st.window+1)
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		stop()
		conn.Close()
		return dpp.ErrClosed
	}
	old := st.conn
	st.conn, st.recv, st.watchStop, st.token = conn, recv, stop, newToken
	st.mu.Unlock()
	if old != nil {
		old.Close()
	}
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
// window, which caps in-flight items below the channel's capacity) and
// terminates with exactly one terminal message. Every payload frame goes
// through the kind's decode hook, which must find the next expected index
// and a stamped chain equal to the locally recomputed one — so a buggy or
// hostile resume can never splice a divergent, misordered or aliased
// stream in silently. Terminal sends bail out on done so even a
// misbehaving server that overfills the window cannot strand the receiver
// once Close runs.
//
// A drain notice that surfaces does so between files: the server keeps
// serving after it, so a file it arrives inside is read to its closing
// record first, and nothing already served has to be fetched again.
func (st *stream[T]) receive(br *bufio.Reader, recv chan remoteMsg[T], stop func(), at cursor) {
	defer close(recv)
	defer stop() // this connection's stream has ended; release its watcher
	terminal := func(err error) {
		select {
		case recv <- remoteMsg[T]{err: err}:
		case <-st.done:
		}
	}
	// One frame buffer per connection: every decoder below copies what it
	// keeps out of the payload, so the next frame may overwrite it.
	var buf []byte
	drained := false
	for {
		if drained && !at.inFile {
			terminal(ErrDrained)
			return
		}
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
		switch {
		case typ == frameBatch || typ == frameFileUnit:
			var item T
			if item, at, err = st.kind.decode(typ, payload, at); err != nil {
				terminal(err)
				return
			}
			select {
			case recv <- remoteMsg[T]{item: item, at: at}:
			case <-st.done:
				return
			}
		case typ == frameStats:
			stats, err := decodeSessionStats(bytes.NewReader(payload))
			if err != nil {
				terminal(fmt.Errorf("dppnet: corrupt stats frame: %w", err))
				return
			}
			st.mu.Lock()
			st.stats = stats
			st.mu.Unlock()
		case typ == frameEOF:
			st.mu.Lock()
			st.gotEOF = true
			st.mu.Unlock()
			terminal(io.EOF)
			return
		case typ == frameDrain:
			if len(payload) != 0 {
				terminal(fmt.Errorf("dppnet: drain frame with a %d-byte payload", len(payload)))
				return
			}
			// Advisory on a batch stream: keep consuming — the server keeps
			// serving until the operator's deadline.
			drained = st.kind.drainSurfaces
		case typ == frameError:
			terminal(fmt.Errorf("%w: %s", ErrRemote, payload))
			return
		default:
			terminal(fmt.Errorf("dppnet: unexpected frame %#x", typ))
			return
		}
	}
}

// next returns the stream's next item, blocking until one arrives over
// the wire, the scan is exhausted (io.EOF), the server reports an error
// (wrapped in ErrRemote), the connection fails, ctx is cancelled
// (ctx.Err()), or the session is closed (dpp.ErrClosed) — the same
// contract as a local session's. Each consumed item returns one window
// credit to the server. Under a resume policy, a failed connection is
// redialed here instead of surfacing; after the end, the recorded outcome
// repeats.
func (st *stream[T]) next(ctx context.Context) (T, error) {
	var zero T
	for {
		st.mu.Lock()
		if st.closed {
			st.mu.Unlock()
			return zero, dpp.ErrClosed
		}
		if st.termErr != nil {
			err := st.termErr
			st.mu.Unlock()
			return zero, err
		}
		recv := st.recv
		st.mu.Unlock()

		select {
		case m, ok := <-recv:
			if !ok {
				// The receiver already delivered its terminal error; this is
				// a next after the end. Replay the recorded outcome.
				st.mu.Lock()
				defer st.mu.Unlock()
				if st.closed {
					return zero, dpp.ErrClosed
				}
				if st.termErr != nil {
					return zero, st.termErr
				}
				return zero, io.EOF
			}
			if m.err == nil {
				st.at = m.at
				st.send(oneCredit)
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
				return zero, dpp.ErrClosed
			}
			if resumeCut {
				return zero, ctx.Err()
			}
			return zero, m.err
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-st.done:
			return zero, dpp.ErrClosed
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
func (st *stream[T]) reconnect(ctx context.Context) error {
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
// (payload length 1, the uvarint 1) — written once per item consumed — and
// the two that are a type and an empty payload.
var (
	oneCredit      = []byte{frameCredit, 1, 1}
	closeFrame     = []byte{frameClose, 0}
	endFollowFrame = []byte{frameEndFollow, 0}
)

// send writes one client→server control frame on the current connection.
// A write failure means the connection is already dead; the receiver
// surfaces that as the terminal error, so it is not reported here.
func (st *stream[T]) send(frame []byte) {
	st.mu.Lock()
	conn := st.conn
	st.mu.Unlock()
	st.wmu.Lock()
	defer st.wmu.Unlock()
	_, _ = conn.Write(frame)
}

// Reconnects reports how many times this session resumed over a new
// connection.
func (st *stream[T]) Reconnects() int64 { return st.reconnects.Load() }

// Stats returns the session's final accounting as reported by the server
// in the trailing stats frame. It is available once the stream has
// returned io.EOF; before that (or after a failure that lost the frame) it
// returns false.
func (st *stream[T]) Stats() (dpp.SessionStats, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats, st.gotEOF
}

// Close tears the remote session down: a best-effort close frame, then
// the connection. Idempotent; always returns nil, like a local session's
// Close. Items already returned remain valid.
func (st *stream[T]) Close() error {
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
