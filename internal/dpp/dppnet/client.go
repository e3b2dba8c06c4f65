package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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

// ErrRemote wraps failures the server reported over the wire (as opposed
// to transport failures observed locally).
var ErrRemote = errors.New("dppnet: remote error")

// errConnLost marks transport-level stream failures — the connection
// died under the session. These (and only these) are the errors a
// resume policy reconnects across; corrupt frames and server-reported
// errors stay terminal.
var errConnLost = errors.New("dppnet: connection lost")

// ResumePolicy configures transparent reconnect-and-resume for remote
// sessions: when the connection under a session dies, the client redials
// with its resume token and consumed offset, verifying the continued
// stream against the rolling chain hash. The zero value disables
// reconnect (a dead connection is a terminal session error).
type ResumePolicy struct {
	// MaxAttempts caps consecutive failed redials before the session
	// gives up; 0 disables reconnect entirely.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (the first is
	// immediate; 0 means 50ms). It doubles per attempt up to resumeDelayCap.
	BaseDelay time.Duration
}

const (
	// resumeDelayCap caps the backoff between redials.
	resumeDelayCap = 2 * time.Second
	// resumeJitter randomizes each backoff delay downward by up to this
	// fraction — uniformly in [delay/2, delay] — de-synchronizing the redial
	// storm when a server restart drops a whole fleet of sessions at once
	// (unjittered, every session slept the identical schedule and the herd
	// re-arrived in lockstep each round).
	resumeJitter = 0.5
)

func (p ResumePolicy) normalized() ResumePolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	return p
}

// backoff returns the pause before redial attempt n (n >= 1; attempt 0
// is immediate): BaseDelay doubled per attempt, capped at resumeDelayCap,
// then jittered downward by up to the resumeJitter fraction. Call on a
// normalized policy. rng may be nil (no jitter); it is only ever touched
// from the session's consumer goroutine.
func (p ResumePolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay
	for i := 1; i < n && d < resumeDelayCap; i++ {
		d *= 2
	}
	d = min(d, resumeDelayCap)
	if rng != nil {
		d -= time.Duration(resumeJitter * rng.Float64() * float64(d))
	}
	return d
}

// jitterRNG mints a session's jitter source: the clock mixed with the
// session ordinal k, so sessions opened in one tick still spread.
func jitterRNG(k int64) *rand.Rand {
	const mix = int64(-4645906587626371135) // 0x9e3779b97f4a7c15 as int64
	return rand.New(rand.NewSource(time.Now().UnixNano() ^ k*mix))
}

// Client opens preprocessing sessions on a remote dppnet server. It
// holds no connection itself — every Open and ServiceStats dials its own
// TCP connection, mirroring one-connection-per-session on the server.
type Client struct {
	addr       string
	dialer     net.Dialer
	sessionSeq atomic.Int64

	// Resume, when MaxAttempts > 0, makes sessions opened by this client
	// survive connection loss: they handshake as resumable and
	// transparently redial-and-resume under the policy's capped backoff.
	// Set before Open.
	Resume ResumePolicy
	// AuthToken is the tenant token presented in every handshake; leave
	// empty against servers that run without a front door. Set before
	// Open.
	AuthToken string
}

// NewClient returns a client for the server at addr (host:port). No I/O
// happens until Open or ServiceStats.
func NewClient(addr string) *Client {
	return &Client{addr: addr}
}

// dial establishes a connection to the server and writes the preamble +
// handshake, stamping the client's tenant token into the request.
func (c *Client) dial(ctx context.Context, req openRequest) (net.Conn, *bufio.Reader, error) {
	req.AuthToken = c.AuthToken
	conn, err := c.dialer.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, nil, err
	}
	payload, err := json.Marshal(req)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	var hello bytes.Buffer
	hello.WriteString(protoMagic)
	hello.WriteByte(protoVersion)
	if err := writeFrame(&hello, frameOpen, payload); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if _, err := conn.Write(hello.Bytes()); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, bufio.NewReader(conn), nil
}

// openStream dials and completes a session handshake, returning the
// connection, its reader, the watcher's stop, and the ok reply. Server
// refusals come back wrapped in ErrRemote.
func (c *Client) openStream(ctx context.Context, req openRequest) (net.Conn, *bufio.Reader, func(), okReply, error) {
	conn, br, err := c.dial(ctx, req)
	if err != nil {
		return nil, nil, nil, okReply{}, err
	}
	// Install the ctx watcher before the handshake read: a server that
	// accepts but never replies must not be able to wedge the open past
	// its context.
	watchStop := closeOnDone(ctx, conn)
	fail := func(err error) (net.Conn, *bufio.Reader, func(), okReply, error) {
		watchStop()
		conn.Close()
		return nil, nil, nil, okReply{}, err
	}
	typ, payload, err := readFrame(br, maxFrameBytes)
	if err != nil {
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		return fail(err)
	}
	switch typ {
	case frameOK:
	case frameError:
		return fail(fmt.Errorf("%w: %s", ErrRemote, payload))
	default:
		return fail(fmt.Errorf("dppnet: unexpected handshake reply %#x", typ))
	}
	okr, err := decodeOKReply(payload)
	if err != nil {
		return fail(err)
	}
	return conn, br, watchStop, okr, nil
}

// probe runs one single-reply conversation of the given handshake kind
// and returns the payload of the want frame.
func (c *Client) probe(ctx context.Context, kind string, want byte) ([]byte, error) {
	conn, br, err := c.dial(ctx, openRequest{Kind: kind})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := closeOnDone(ctx, conn)
	defer stop()

	typ, payload, err := readFrame(br, maxFrameBytes)
	switch {
	case err != nil && ctx.Err() != nil:
		return nil, ctx.Err()
	case err != nil:
		return nil, err
	case typ == want:
		return payload, nil
	case typ == frameError:
		return nil, fmt.Errorf("%w: %s", ErrRemote, payload)
	default:
		return nil, fmt.Errorf("dppnet: unexpected frame %#x to %s", typ, kind)
	}
}

// ServiceStats fetches the remote service's aggregate accounting — the
// wire form of a /statsz probe against dpp.Service.Stats.
func (c *Client) ServiceStats(ctx context.Context) (dpp.Stats, error) {
	payload, err := c.probe(ctx, kindStatsz, frameSvcStats)
	if err != nil {
		return dpp.Stats{}, err
	}
	return decodeServiceStats(payload)
}

// Tablez fetches the served table's metadata — schema width, file plan,
// and derived spec — so a trainer can start cold from the wire with no
// local table build.
func (c *Client) Tablez(ctx context.Context) (*TableMeta, error) {
	payload, err := c.probe(ctx, kindTablez, frameTablez)
	if err != nil {
		return nil, err
	}
	return decodeTableMeta(payload)
}

// closeOnDone force-closes conn when ctx is cancelled, so reads blocked
// on the connection observe cancellation promptly. The returned stop
// function releases the watcher.
func closeOnDone(ctx context.Context, conn net.Conn) (stop func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// Open submits spec to the remote service and returns the session as a
// pull stream. The semantics mirror dpp.Service.Open: admission errors
// (invalid spec, a tenant's session cap, closed service) surface here,
// wrapped in ErrRemote; cancelling ctx at any later point tears the remote
// session down as Close would. The credit window is spec.Window(), the
// bound a local session's output buffer has.
func (c *Client) Open(ctx context.Context, spec dpp.Spec) (*RemoteSession, error) {
	// A Follow session has no frozen file list to hash and no
	// predetermined length, so resume — built on replaying a fixed
	// deterministic stream — cannot apply. Refuse the combination here,
	// before any dial, rather than letting the server reject it (which it
	// also does).
	if spec.Follow && c.Resume.MaxAttempts > 0 {
		return nil, fmt.Errorf("dppnet: follow sessions are incompatible with resume; use a client without a Resume policy")
	}
	units, err := c.OpenUnits(ctx, spec, nil)
	if err != nil {
		return nil, err
	}
	// The server has validated the spec the cutter is built from.
	cut, err := reader.NewReader(nil, spec.Spec)
	if err != nil {
		units.Close()
		return nil, err
	}
	rs := &RemoteSession{units: units, cut: cut}
	// The output buffer is empty: the cutter hands each batch over in
	// person while it holds the piece it came in, whose credit the server
	// is still owed (RemoteUnitSession.NextPiece), so what the session holds
	// and has in flight never exceeds the credit window.
	rs.sh.Open(ctx, dpp.SystemClock{}, 0)
	rs.sh.Pool = func() dpp.SchedulerStats { return dpp.SchedulerStats{} }
	rs.sh.HaltOn(func() { units.Close() })
	rs.sh.Go(rs.run)
	return rs, nil
}

// RemoteSession is the client half of one streamed batch session: a fleet
// of one. The server serves it as a unit stream over every file of the
// spec's plan (RemoteUnitSession), and the reader's one cutter
// (reader.RunUnits) joins the batches that cross files from the tails and
// heads, on the session shell (dpp.Shell) every local session has. Each
// file's unit pulls its pieces off the stream in order. It satisfies
// dpp.Stream: Next blocks for the next batch exactly like a local
// session's, and Close tears the remote session down. Next is
// single-consumer, as with a local Session.
type RemoteSession struct {
	units *RemoteUnitSession
	sh    dpp.Shell[*reader.Batch]
	// cut is the session's local reader, the cutter: it has no store to
	// read, and its work is the batches that cross files and the last one.
	cut *reader.Reader
}

var _ dpp.Stream = (*RemoteSession)(nil)

// run cuts the unit stream into the session's batches: a unit per file,
// entered with the carry its head names, whose pieces are the stream's up
// to the file's closing record.
func (rs *RemoteSession) run() {
	ctx := rs.sh.Ctx()
	err := rs.cut.RunUnits(ctx, func() (reader.Unit, bool) {
		p, err := rs.units.NextPiece(ctx)
		if err == io.EOF {
			return reader.Unit{}, false
		}
		if err != nil {
			return reader.Unit{Err: err}, true
		}
		return reader.Unit{File: p.File, Carry: p.Carry, Pieces: func(yield func(reader.Piece) error) error {
			for {
				if err := yield(reader.Piece{Batch: p.Batch, Rows: p.Rows()}); err != nil || p.Tail != nil {
					return err
				}
				if p, err = rs.units.NextPiece(ctx); err == io.EOF {
					err = fmt.Errorf("dppnet: the stream ended inside a file")
				}
				if err != nil {
					return err
				}
			}
		}}, true
	}, rs.sh.Emit)
	rs.sh.Settle(err, rs.cut.Stats())
}

// Next returns the session's next batch under the stream contract:
// batches until io.EOF, a server error wrapped in ErrRemote, a connection
// failure (redialed under a resume policy), ctx.Err(), or dpp.ErrClosed.
func (rs *RemoteSession) Next(ctx context.Context) (*reader.Batch, error) { return rs.sh.Pull(ctx) }

// Close tears the remote session down: the cutter and the unit stream
// under it. Idempotent; always returns nil, like a local session's Close.
// Batches already returned remain valid.
func (rs *RemoteSession) Close() error { return rs.sh.Close() }

// Stats returns the session's final accounting: the server's, as its eof
// frame reported it, plus the reader work of the cutter
// here. It is available once the stream has returned io.EOF; before that
// (or after a failure that lost the frame) it returns false.
func (rs *RemoteSession) Stats() (dpp.SessionStats, bool) {
	st, ok := rs.units.Stats()
	if ok {
		st.Reader.Add(rs.sh.Stats().Reader)
	}
	return st, ok
}

// TokenResumes and Replays split the session's successful continuations
// by kind: a token resume claimed parked server state (retained frames
// resent, nothing re-decoded), a replay re-synthesized the consumed prefix
// on a fresh session.
func (rs *RemoteSession) TokenResumes() int64 { return rs.units.tokenResumes.Load() }
func (rs *RemoteSession) Replays() int64      { return rs.units.replays.Load() }

// EndFollow asks the server to end a Follow session's tail: the server
// stops observing the catalog, the stream drains the files already
// announced, and Next runs to a normal io.EOF with final stats — the
// wire twin of dpp.Session.EndFollow. Best-effort and idempotent; a
// no-op on non-follow sessions and dead connections.
func (rs *RemoteSession) EndFollow() { rs.units.send(endFollowFrame) }
