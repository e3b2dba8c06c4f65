package dppnet

import (
	"bufio"
	"bytes"
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
)

// OpenUnits opens a file-unit session on the remote service
// (dpp.Service.OpenUnits over the wire): whole decoded files arrive
// strictly in file-list order instead of a batch stream. This is how the
// fleet multiplexer (dppshard) consumes a shard; training loops consume
// batch sessions via Open.
//
// The spec must name its files explicitly (Spec.Files): units travel by
// subset index, so the client must own the list the indices name. The
// receive window counts unit frames in flight, sized like a batch
// session's — max(1,Readers) × buffer depth — so a shard's scan workers
// stay busy up to the same backpressure bound a local unit session's
// merge window allows.
//
// Under a Client.Resume policy the unit stream resumes over reconnects
// exactly like a batch session's, with the chain hash verifying the
// continued stream.
func (c *Client) OpenUnits(ctx context.Context, spec dpp.Spec) (*RemoteUnitSession, error) {
	if len(spec.Files) == 0 {
		return nil, fmt.Errorf("dppnet: file-unit session needs an explicit file list")
	}
	ws, err := encodeSpec(spec)
	if err != nil {
		return nil, err
	}
	readers, buffer := spec.Readers, spec.Buffer
	if readers <= 0 {
		readers = dpp.DefaultReaders
	}
	if buffer <= 0 {
		buffer = dpp.DefaultBuffer
	}
	window := readers * buffer
	if window > maxWindow {
		window = maxWindow
	}

	conn, br, watchStop, token, err := c.openStream(ctx, c.addr, openRequest{
		Kind: kindSession, Window: window, Spec: ws, FileUnits: true, Resumable: c.resumable(),
	})
	if err != nil {
		return nil, err
	}

	rus := &RemoteUnitSession{
		client: c,
		ws:     ws,
		window: window,
		rng:    jitterRNG(c.Resume.normalized(), c.sessionSeq.Add(1)),
		conn:   conn,
		files:  spec.Files,
		tail:   spec.ConsumedFeatures(),
		// One slot past the credit window, for the same reason as a batch
		// session's receive channel: the terminal message always fits.
		recv:      make(chan remoteUnitMsg, window+1),
		done:      make(chan struct{}),
		watchStop: watchStop,
		token:     token,
		chain:     chainSeed,
	}
	go rus.receive(br, rus.recv, watchStop, 0, chainSeed)
	return rus, nil
}

// remoteUnitMsg is one received item handed from the connection reader
// to NextUnit: a decoded unit with its verified chain value, or the
// terminal error.
type remoteUnitMsg struct {
	unit  *dpp.FileUnit
	chain uint64
	err   error
}

// RemoteUnitSession is the client half of one file-unit stream. NextUnit
// is single-consumer; Close may race it from another goroutine, exactly
// as with RemoteSession.
type RemoteUnitSession struct {
	client *Client
	ws     *wireSpec
	window int
	files  []string
	tail   []string // the features a unit's tail chunk holds

	done chan struct{}

	wmu sync.Mutex // serializes credit/close frame writes

	// rng drives backoff jitter; touched only from the consumer
	// goroutine (reconnect runs under NextUnit).
	rng *rand.Rand

	// consumed and chain are the resume cursor: units [0, consumed) were
	// returned by NextUnit; chain is the rolling hash after the last.
	consumed   int64
	chain      uint64
	reconnects atomic.Int64

	mu        sync.Mutex
	conn      net.Conn
	recv      chan remoteUnitMsg
	watchStop func()
	token     string
	stats     dpp.SessionStats
	gotEOF    bool
	closed    bool
	termErr   error
}

// Reconnects reports how many times this session resumed over a new
// connection.
func (rus *RemoteUnitSession) Reconnects() int64 { return rus.reconnects.Load() }

// receive owns one connection's read half, mirroring RemoteSession's
// receiver. It additionally enforces the in-order contract: units must
// arrive with strictly consecutive subset indices starting at the
// resume offset — a server violating that is protocol-corrupt, and
// failing here keeps the fleet merge from ever seeing a misordered or
// aliased slot. The stamped chain hash is recomputed and compared per
// unit, so a resumed stream that diverges fails at the first frame.
func (rus *RemoteUnitSession) receive(br *bufio.Reader, recv chan remoteUnitMsg, stop func(), next int64, chain uint64) {
	defer close(recv)
	defer stop()
	terminal := func(err error) {
		select {
		case recv <- remoteUnitMsg{err: err}:
		case <-rus.done:
		}
	}
	for {
		typ, payload, err := readFrame(br, maxFrameBytes)
		if err != nil {
			terminal(fmt.Errorf("%w: %v", errConnLost, err))
			return
		}
		switch typ {
		case frameFileUnit:
			fchain, body, err := decodeUnitFrame(payload)
			if err != nil {
				terminal(fmt.Errorf("dppnet: corrupt file-unit frame: %w", err))
				return
			}
			u, err := decodeFileUnit(body, rus.tail)
			if err != nil {
				terminal(fmt.Errorf("dppnet: corrupt file-unit frame: %w", err))
				return
			}
			if int64(u.Index) != next || u.Index >= len(rus.files) {
				terminal(fmt.Errorf("dppnet: file unit %d out of order (want %d of %d)", u.Index, next, len(rus.files)))
				return
			}
			if chain, err = chainUnit(chain, body); err != nil {
				terminal(err)
				return
			}
			if chain != fchain {
				terminal(fmt.Errorf("dppnet: stream hash mismatch at file unit %d", u.Index))
				return
			}
			u.File = rus.files[u.Index]
			next++
			select {
			case recv <- remoteUnitMsg{unit: u, chain: chain}:
			case <-rus.done:
				return
			}
		case frameStats:
			st, err := decodeSessionStats(bytes.NewReader(payload))
			if err != nil {
				terminal(fmt.Errorf("dppnet: corrupt stats frame: %w", err))
				return
			}
			rus.mu.Lock()
			rus.stats = st
			rus.mu.Unlock()
		case frameEOF:
			rus.mu.Lock()
			rus.gotEOF = true
			rus.mu.Unlock()
			terminal(io.EOF)
			return
		case frameDrain:
			if _, err := decodeDrainNotice(payload); err != nil {
				terminal(fmt.Errorf("dppnet: corrupt drain frame: %w", err))
				return
			}
			// Unit sessions always surface the drain: the fleet
			// multiplexer (dppshard) owns failover — it reroutes the
			// shard's unconsumed files to other shards, so nothing already
			// served is ever refetched.
			terminal(ErrDrained)
			return
		case frameError:
			terminal(fmt.Errorf("%w: %s", ErrRemote, payload))
			return
		default:
			terminal(fmt.Errorf("dppnet: unexpected frame %#x", typ))
			return
		}
	}
}

// NextUnit returns the stream's next file unit, blocking until one
// arrives, the scan is exhausted (io.EOF), the server reports an error
// (wrapped in ErrRemote), the connection fails, ctx is cancelled, or the
// session is closed (dpp.ErrClosed) — the same contract as a local
// UnitSession.NextUnit. Each consumed unit returns one window credit.
// Under a resume policy, a failed connection is redialed here instead of
// surfacing.
func (rus *RemoteUnitSession) NextUnit(ctx context.Context) (*dpp.FileUnit, error) {
	for {
		rus.mu.Lock()
		if rus.closed {
			rus.mu.Unlock()
			return nil, dpp.ErrClosed
		}
		if rus.termErr != nil {
			err := rus.termErr
			rus.mu.Unlock()
			return nil, err
		}
		recv := rus.recv
		rus.mu.Unlock()

		select {
		case m, ok := <-recv:
			if !ok {
				rus.mu.Lock()
				defer rus.mu.Unlock()
				if rus.closed {
					return nil, dpp.ErrClosed
				}
				if rus.termErr != nil {
					return nil, rus.termErr
				}
				return nil, io.EOF
			}
			if m.err != nil {
				resumeCut := false
				if errors.Is(m.err, errConnLost) && rus.client != nil && rus.client.Resume.MaxAttempts > 0 {
					rerr := rus.reconnect(ctx)
					if rerr == nil {
						rus.reconnects.Add(1)
						continue
					}
					if rerr != ctx.Err() {
						m.err = rerr
					} else {
						resumeCut = true
					}
				}
				rus.mu.Lock()
				closed := rus.closed
				if rus.termErr == nil {
					rus.termErr = m.err
				}
				rus.mu.Unlock()
				if closed && m.err != io.EOF {
					return nil, dpp.ErrClosed
				}
				if resumeCut {
					return nil, ctx.Err()
				}
				return nil, m.err
			}
			rus.consumed, rus.chain = int64(m.unit.Index)+1, m.chain
			rus.sendCredit()
			return m.unit, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-rus.done:
			return nil, dpp.ErrClosed
		}
	}
}

// reconnect mirrors RemoteSession.reconnect for the unit stream: token
// resume first, offset replay as fallback, capped exponential backoff
// between transport failures.
func (rus *RemoteUnitSession) reconnect(ctx context.Context) error {
	pol := rus.client.Resume.normalized()
	rus.mu.Lock()
	token := rus.token
	rus.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(pol.backoff(attempt, rus.rng)):
			case <-ctx.Done():
				return ctx.Err()
			case <-rus.done:
				return dpp.ErrClosed
			}
		}
		err := rus.redial(ctx, token)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrRemote) && token != "" {
			token = ""
			if err = rus.redial(ctx, ""); err == nil {
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

// redial performs one resume handshake and, on success, installs the new
// connection and a fresh receiver continuing at the consumed cursor.
func (rus *RemoteUnitSession) redial(ctx context.Context, token string) error {
	conn, br, stop, newToken, err := rus.client.openStream(ctx, rus.client.addr, openRequest{
		Kind: kindSession, Window: rus.window, Spec: rus.ws, FileUnits: true,
		Resumable: true, Offset: rus.consumed, Token: token,
	})
	if err != nil {
		return err
	}
	recv := make(chan remoteUnitMsg, rus.window+1)
	rus.mu.Lock()
	if rus.closed {
		rus.mu.Unlock()
		stop()
		conn.Close()
		return dpp.ErrClosed
	}
	old := rus.conn
	rus.conn = conn
	rus.recv = recv
	rus.watchStop = stop
	rus.token = newToken
	rus.mu.Unlock()
	if old != nil {
		old.Close()
	}
	go rus.receive(br, recv, stop, rus.consumed, rus.chain)
	return nil
}

// sendCredit returns one window credit; a write failure means the
// connection is already dead and will surface through the receiver.
func (rus *RemoteUnitSession) sendCredit() {
	rus.mu.Lock()
	conn := rus.conn
	rus.mu.Unlock()
	var payload [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(payload[:], 1)
	rus.wmu.Lock()
	defer rus.wmu.Unlock()
	_ = writeFrame(conn, frameCredit, payload[:n])
}

// Stats returns the shard session's final accounting as reported in the
// trailing stats frame, available once NextUnit has returned io.EOF.
func (rus *RemoteUnitSession) Stats() (dpp.SessionStats, bool) {
	rus.mu.Lock()
	defer rus.mu.Unlock()
	return rus.stats, rus.gotEOF
}

// Close tears the remote unit session down: a best-effort close frame,
// then the connection. Idempotent; always returns nil.
func (rus *RemoteUnitSession) Close() error {
	rus.mu.Lock()
	if rus.closed {
		rus.mu.Unlock()
		return nil
	}
	rus.closed = true
	conn := rus.conn
	recv := rus.recv
	stop := rus.watchStop
	rus.mu.Unlock()
	close(rus.done)
	stop()
	rus.wmu.Lock()
	_ = writeFrame(conn, frameClose, nil)
	rus.wmu.Unlock()
	conn.Close()
	for range recv {
	}
	return nil
}
