package dppnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dpp"
	"repro/internal/dpp/front"
	"repro/internal/metrics"
)

// errDraining refuses a session handshake while the server drains. The
// text deliberately contains "draining": fleet clients (dppshard) match
// it to route new opens around a draining shard instead of failing.
var errDraining = errors.New("dppnet: server draining")

// Server fronts one dpp.Service on a TCP listener: every accepted
// connection is one handshake — a streamed session or a statsz probe.
// Sessions opened over the wire are ordinary service sessions, so they
// share the service's admission cap, ScanCache, and accounting with any
// in-process sessions on the same Service.
type Server struct {
	svc *dpp.Service

	// OnSession, when non-nil, receives one SessionEvent per session
	// lifecycle transition this server serves (open, close, error) — the
	// feed an access log subscribes to. Set it before Serve; it is read
	// from handler goroutines and must not be mutated afterwards. The
	// callback runs on the serving path and must be cheap and non-blocking
	// (obs.AccessLog.Record is; anything that can stall must hand off).
	OnSession func(SessionEvent)

	// Tablez, when non-nil, is the served table's metadata answered to
	// tablez handshakes — what lets recd-train -connect start cold from
	// the wire. Set before Serve.
	Tablez *TableMeta

	// Gate, when non-nil, is the multi-tenant front door every session
	// handshake passes through: the handshake's auth_token is
	// authenticated and the tenant's quotas charged *before* any session
	// state is allocated, and the session's tenant threads into its
	// spec, resume entry, access-log events, and metrics. Several
	// servers (recd-serve's shards) may share one Gate so quotas span
	// the process. statsz and tablez probes stay unauthenticated — they
	// are read-only operational metadata, the /healthz of the wire. Set
	// before Serve.
	Gate *front.Gate

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// Drain mode: draining flips once, drainCh closes to wake stalled
	// serving loops so they send the drain frame promptly.
	draining  atomic.Bool
	drainOnce sync.Once
	drainCh   chan struct{}

	// resumeClock, when non-nil, replaces the wall clock for resume
	// expiry (park/claim/janitor) — the test seam that makes same-tick
	// parking reproducible. Set before Serve.
	resumeClock func() time.Time
	// parkTTL and parkMax, when nonzero, replace defaultResumeTTL (how
	// long a dropped resumable session stays parked) and defaultResumeMax
	// (how many stay parked; negative disables parking — resume then
	// always takes the offset-replay path): the test seams that expire
	// and evict parks on demand. Set before Serve.
	parkTTL time.Duration
	parkMax int

	// Transport accounting, exported through Stats for the observability
	// sidecar: internal/metrics atomics, so the serving loop never takes
	// a lock to count.
	connsAccepted    metrics.Counter
	connsActive      metrics.Gauge
	sessionsServed   metrics.Counter
	batchesSent      metrics.Counter
	unitsSent        metrics.Counter
	bytesSent        metrics.Counter
	creditStalls     metrics.Counter
	creditStallNS    metrics.Counter
	resumedSessions  metrics.Counter
	replayedSessions metrics.Counter
	replayedBatches  metrics.Counter
	parkedSessions   metrics.Counter
	resumeExpired    metrics.Counter
	drainNotices     metrics.Counter
	sessionSeq       atomic.Int64

	resume resumeTable

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// SessionEvent is one access-log record from the server's perspective.
// Kind is "open" (a session was admitted), "close" (its stream ended —
// Detail says how: "eof", "teardown", or "error: ..."), or "error" (the
// handshake or admission failed; no session existed). The JSON names are
// the access log's (obs.AccessEvent).
type SessionEvent struct {
	// Kind is "open", "close", or "error".
	Kind string `json:"kind"`
	// ID is a server-local session sequence number tying an open event to
	// its close; 0 for pre-admission errors.
	ID int64 `json:"id,omitempty"`
	// Peer is the client's remote address.
	Peer string `json:"peer,omitempty"`
	// Table is the spec's table name.
	Table string `json:"table,omitempty"`
	// FileUnits marks a fleet shard's file-unit session.
	FileUnits bool `json:"file_units,omitempty"`
	// ShareScans marks a session that opted into the ScanCache.
	ShareScans bool `json:"share_scans,omitempty"`
	// Batches and Bytes count payload frames and payload bytes shipped; set
	// on close events. A file-unit session's Batches counts its batch frames
	// and its file-unit frames alike — the unit Offset counts in.
	Batches int64 `json:"batches,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// Duration is the session's wall-clock lifetime; set on close events.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Detail carries the outcome or error text; a resumable session
	// whose connection dropped closes with Detail "parked".
	Detail string `json:"detail,omitempty"`
	// Resumed marks a reconnect: this session continued earlier state
	// (by token) or replayed to an offset, rather than starting fresh.
	// Offset is the stream index it continued from.
	Resumed bool  `json:"resumed,omitempty"`
	Offset  int64 `json:"offset,omitempty"`
	// Tenant is the authenticated tenant the session (or failed
	// handshake) belongs to; empty when the server runs without a Gate.
	Tenant string `json:"tenant,omitempty"`
}

// ServerStats is a snapshot of the server's transport accounting.
type ServerStats struct {
	// ConnsAccepted counts every accepted connection; ConnsActive is the
	// number currently being handled.
	ConnsAccepted, ConnsActive int64
	// SessionsServed counts admitted wire sessions (batch and file-unit).
	SessionsServed int64
	// BatchesSent counts batch frames shipped, on batch and on file-unit
	// streams alike; UnitsSent counts file-unit frames: one per file a unit
	// stream finished serving, and one more per file it carried rows into.
	// BytesSent totals the payload bytes of both.
	BatchesSent, UnitsSent, BytesSent int64
	// CreditStalls counts credit-window exhaustion episodes — the serving
	// loop wanted to send but the consumer owed credits — and
	// CreditStallTime totals the time spent blocked in them. This is the
	// wire-level twin of the sessions' ConsumerStall signal.
	CreditStalls    int64
	CreditStallTime time.Duration
	// ResumedSessions counts handshakes that continued an earlier stream
	// by claiming its parked token — retained frames resent, nothing
	// re-decoded. ReplayedSessions counts handshakes that continued by
	// deterministic offset replay instead (no parked state; the prefix
	// was re-pulled and discarded). The two are deliberately distinct:
	// a fleet that "recovers" only ever via replay is burning decode
	// work the resume path exists to avoid. ReplayedBatches counts the
	// frames pulled and discarded to reach replay offsets.
	// ParkedSessions counts resumable sessions whose state was parked
	// after a dropped connection; ResumeExpired counts parked entries
	// evicted (TTL or capacity) before anyone claimed them.
	ResumedSessions  int64
	ReplayedSessions int64
	ReplayedBatches  int64
	ParkedSessions   int64
	ResumeExpired    int64
	// DrainNotices counts drain frames handed to in-flight clients;
	// Draining reports whether the server has entered drain mode.
	DrainNotices int64
	Draining     bool
}

// Stats returns a snapshot of the transport accounting. Lock-free; safe
// to poll at any frequency.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		ConnsAccepted:    s.connsAccepted.Value(),
		ConnsActive:      s.connsActive.Value(),
		SessionsServed:   s.sessionsServed.Value(),
		BatchesSent:      s.batchesSent.Value(),
		UnitsSent:        s.unitsSent.Value(),
		BytesSent:        s.bytesSent.Value(),
		CreditStalls:     s.creditStalls.Value(),
		CreditStallTime:  time.Duration(s.creditStallNS.Value()),
		ResumedSessions:  s.resumedSessions.Value(),
		ReplayedSessions: s.replayedSessions.Value(),
		ReplayedBatches:  s.replayedBatches.Value(),
		ParkedSessions:   s.parkedSessions.Value(),
		ResumeExpired:    s.resumeExpired.Value(),
		DrainNotices:     s.drainNotices.Value(),
		Draining:         s.draining.Load(),
	}
}

// event hands one access-log record to the OnSession subscriber, if any.
func (s *Server) event(ev SessionEvent) {
	if s.OnSession != nil {
		s.OnSession(ev)
	}
}

// NewServer wraps a service; call Serve to start accepting.
func NewServer(svc *dpp.Service) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{svc: svc, ctx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{}),
		drainCh: make(chan struct{})}
}

// Drain puts the server in drain mode: new session handshakes and resume
// claims are refused (with an error fleet clients route around), parking
// stops, and every in-flight session is sent one drain frame — on which a
// fleet's unit stream ends at its next file boundary, so that its remaining
// files move to another shard, and which a batch session rides out here.
// Serving continues — Drain never cuts a stream; the operator calls Close
// once ConnsActive reaches zero (or a deadline passes). Idempotent and safe
// from any goroutine.
func (s *Server) Drain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		if s.Gate != nil {
			s.Gate.Drain()
		}
		close(s.drainCh)
	})
}

// Serve accepts connections on ln until Close (which returns nil) or a
// listener failure (which returns the error). Each connection is handled
// on its own goroutine; Serve itself blocks.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("dppnet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsAccepted.Inc()
		s.connsActive.Inc()
		go func() {
			defer s.wg.Done()
			defer s.forget(conn)
			s.handle(conn)
		}()
	}
}

// Close stops accepting, force-closes every live connection (tearing
// their sessions down), and waits for the handlers to drain. The
// underlying dpp.Service is left open — it belongs to the caller.
// Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.cancel()
	ln := s.ln
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// A handler blocked mid-Write to a stalled client only unblocks when
	// its connection dies; ctx cancellation alone cannot reach it.
	for _, c := range open {
		c.Close()
	}
	s.wg.Wait()
	// With every handler (and the resume janitor) drained, nothing can
	// park or claim anymore; close whatever is still parked.
	s.drainResume()
	return nil
}

func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.connsActive.Dec()
}

// handshakeTimeout is how long a connection has to present its preamble and
// handshake frame. Until it has, it holds a handler goroutine and a
// ConnsActive slot that no Gate has charged to anyone, so a peer that
// connects and says nothing is dropped, not kept until Close.
const handshakeTimeout = 5 * time.Second

// handle runs one connection's conversation. Every exit path closes the
// connection, which is also what tears down the connection-reader
// goroutine and (via ctx) the session.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	peer := conn.RemoteAddr().String()
	// One deadline covers the preamble and the handshake frame; serve lifts
	// it when it answers ok.
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))

	// Preamble: magic + version. Without the magic this is not a dppnet
	// client; drop the connection without a reply (there is no known
	// framing to reply in).
	preamble := make([]byte, len(protoMagic)+1)
	if _, err := io.ReadFull(br, preamble); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.event(SessionEvent{Kind: "error", Peer: peer, Detail: "no preamble within " + handshakeTimeout.String()})
		}
		return
	}
	if string(preamble[:len(protoMagic)]) != protoMagic {
		return
	}
	// A dppnet client of another version is told so, in the one frame every
	// version reads the same way. Dropped without a word it would see a lost
	// connection and, under a resume policy, redial until its budget ran out.
	if v := preamble[len(protoMagic)]; v != protoVersion {
		// Its handshake frame, framed the same way in every version, comes
		// off the socket first: closing over unread bytes is a reset, which
		// can overtake the reply.
		_, _, _ = readFrame(br, maxControlFrameBytes)
		err := versionRefusal(v)
		s.event(SessionEvent{Kind: "error", Peer: peer, Detail: err.Error()})
		writeError(bw, err)
		return
	}

	typ, payload, err := readFrame(br, maxControlFrameBytes)
	if err != nil || typ != frameOpen {
		s.event(SessionEvent{Kind: "error", Peer: peer, Detail: "expected open frame"})
		writeError(bw, fmt.Errorf("dppnet: expected open frame"))
		return
	}
	req, err := decodeOpenRequest(payload)
	if err != nil {
		s.event(SessionEvent{Kind: "error", Peer: peer, Detail: "malformed handshake"})
		writeError(bw, fmt.Errorf("dppnet: malformed handshake: %w", err))
		return
	}

	switch req.Kind {
	case kindStatsz:
		s.serveStatsz(bw)
	case kindTablez:
		s.serveTablez(bw)
	case kindSession:
		s.serveStream(conn, br, bw, &req)
	default:
		s.event(SessionEvent{Kind: "error", Peer: peer, Detail: fmt.Sprintf("unknown request kind %q", req.Kind)})
		writeError(bw, fmt.Errorf("dppnet: unknown request kind %q", req.Kind))
	}
}

// serveStatsz answers the wire form of /statsz: the service's aggregate
// stats as JSON, then EOF.
func (s *Server) serveStatsz(bw *bufio.Writer) {
	payload, err := json.Marshal(s.svc.Stats())
	if err != nil {
		writeError(bw, err)
		return
	}
	if writeFrame(bw, frameSvcStats, payload) == nil {
		bw.Flush()
	}
}

// serveTablez answers the tablez conversation with the served table's
// metadata, if recd-serve published any.
func (s *Server) serveTablez(bw *bufio.Writer) {
	if s.Tablez == nil {
		writeError(bw, fmt.Errorf("dppnet: no table metadata served here"))
		return
	}
	payload, err := encodeTableMeta(s.Tablez)
	if err != nil {
		writeError(bw, err)
		return
	}
	if writeFrame(bw, frameTablez, payload) == nil {
		bw.Flush()
	}
}

// serveStream admits a session handshake, opens — or resumes — the session
// it asks for, serves it on this connection, and then parks or closes it.
// Both session kinds (batch and file-unit) run through here; the
// wireStream adapter hides the difference.
//
// A resumable session's stream lives under the *server* context, not the
// connection's: when the connection dies without a close frame, the live
// stream is parked with its unacknowledged frames instead of being closed,
// and a later handshake picks it up byte-where-it-left-off.
func (s *Server) serveStream(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, req *openRequest) {
	peer := conn.RemoteAddr().String()
	tenant := ""
	fail := func(table, detail string, err error) {
		s.event(SessionEvent{Kind: "error", Peer: peer, Table: table, FileUnits: req.FileUnits,
			Tenant: tenant, Detail: detail})
		writeError(bw, err)
	}
	// Admission runs before anything else — before the spec is even
	// decoded — so an unauthenticated or over-quota open is judged
	// against zero allocated session state. The lease holds the tenant's
	// concurrency slot for this connection's lifetime and meters streamed
	// bytes against its budget; a parked session keeps only its byte
	// charge (the slot frees with the connection, and the resume
	// handshake re-admits because the client resends its auth token).
	var lease *front.Lease
	if s.Gate != nil {
		var aerr error
		lease, aerr = s.Gate.Admit(req.AuthToken)
		if aerr != nil {
			fail("", "admission: "+aerr.Error(), aerr)
			return
		}
		tenant = lease.Tenant
		defer lease.Release()
	} else if s.draining.Load() {
		fail("", errDraining.Error(), errDraining)
		return
	}
	if req.Spec == nil {
		fail("", "session handshake has no spec", fmt.Errorf("dppnet: session handshake has no spec"))
		return
	}
	if req.Window <= 0 || req.Window > dpp.MaxWindow {
		fail("", fmt.Sprintf("window %d out of range", req.Window), fmt.Errorf("dppnet: window %d out of range [1,%d]", req.Window, dpp.MaxWindow))
		return
	}
	spec, err := decodeSpec(req.Spec)
	if err != nil {
		fail("", err.Error(), err)
		return
	}
	// The tenant is a serving-side fact: it comes from the authenticated
	// lease, never from the wire spec.
	spec.Tenant = tenant
	// A Follow session's length is decided by the landing writer, not the
	// plan, so neither the file-unit merge (which needs the full plan up
	// front) nor resume (whose identity check hashes a frozen file list)
	// composes with it. Reject at the handshake, before any session state
	// exists.
	claimed := req.Token != ""
	if spec.Follow && (req.FileUnits || req.Resumable || claimed || req.Offset > 0) {
		ferr := fmt.Errorf("dppnet: follow sessions are incompatible with file units and resume")
		fail(spec.Table, ferr.Error(), ferr)
		return
	}
	ss, err := s.openSession(req, spec)
	if err != nil {
		fail(spec.Table, err.Error(), err)
		return
	}

	s.sessionsServed.Inc()
	opened := time.Now()
	ev := SessionEvent{Kind: "open", ID: s.sessionSeq.Add(1), Peer: peer, Table: spec.Table, FileUnits: req.FileUnits,
		ShareScans: spec.ShareScans, Resumed: claimed || req.Offset > 0, Offset: req.Offset, Tenant: tenant}
	s.event(ev)
	count := func(fr frame) {
		if fr.typ() == frameFileUnit {
			s.unitsSent.Inc()
		} else {
			s.batchesSent.Inc()
		}
		n := int64(fr.payloadLen())
		s.bytesSent.Add(n)
		if lease != nil {
			lease.AddBytes(n)
		}
		ev.Batches++
		ev.Bytes += n
	}
	park, outcome := s.serve(conn, br, bw, ss, req.Window, claimed, count)
	if park && s.park(ss) {
		outcome = "parked"
	} else {
		if ss.token != "" {
			s.dropResume(ss.token)
		}
		ss.close()
	}
	ev.Kind, ev.Duration, ev.Detail = "close", time.Since(opened), outcome
	s.event(ev)
}

// openSession returns the session a handshake asks for. There are three
// shapes:
//   - Token set: claim the parked session it names. The offset
//     acknowledges everything below it, and what remains retained is
//     resent on this connection — no re-decoding at all.
//   - Offset without token (what a client falls back to when its token is
//     refused): open a fresh session and replay the deterministic stream to
//     the offset, discarding frames (cheap against a warm ScanCache) while
//     the rolling chain hash catches up.
//   - Neither: an ordinary fresh session from index 0.
//
// The two continuations count separately: a token resume decoded nothing
// again, an offset replay re-pulled the prefix, and a fleet that only ever
// "recovers" by replay is burning the work resume exists to avoid.
func (s *Server) openSession(req *openRequest, spec dpp.Spec) (*session, error) {
	fingerprint, filesHash := spec.Spec.Fingerprint(), fileListHash(spec.Files, req.Serves)
	if req.Token != "" {
		ss, err := s.claimResume(req.Token, spec.Tenant, req.FileUnits, fingerprint, filesHash, req.Offset)
		if err != nil {
			return nil, err
		}
		ss.acked = req.Offset
		ss.prune()
		s.resumedSessions.Inc()
		return ss, nil
	}
	ss := &session{fileUnits: req.FileUnits, fingerprint: fingerprint, filesHash: filesHash, tenant: spec.Tenant}
	ss.ctx, ss.cancel = context.WithCancel(s.ctx)
	var err error
	if req.FileUnits {
		var us *dpp.UnitSession
		if us, err = s.svc.OpenUnits(ss.ctx, spec, req.Serves); err == nil {
			ss.stream, ss.carries = newUnitWire(us), us.Carries()
		}
	} else {
		var sess *dpp.Session
		if sess, err = s.svc.Open(ss.ctx, spec); err == nil {
			ss.stream = newBatchWire(sess)
		}
	}
	if err != nil {
		ss.cancel()
		return nil, err
	}
	if req.Resumable {
		if ss.token, err = newResumeToken(); err != nil {
			ss.close()
			return nil, err
		}
	}
	// The deterministic stream contract makes the replayed prefix
	// byte-identical to what the client already consumed, so discarding it
	// re-synchronizes index and chain.
	for ss.sent < req.Offset {
		fr, err := ss.stream.next(ss.ctx)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("dppnet: resume offset %d beyond end of stream at %d", req.Offset, ss.sent)
			}
			ss.close()
			return nil, err
		}
		ss.stream.recycle(fr)
		ss.sent++
		s.replayedBatches.Inc()
	}
	ss.acked = ss.sent
	if req.Offset > 0 {
		s.replayedSessions.Inc()
	}
	return ss, nil
}

// serve runs ss on one connection: the ok reply, the frames a claimed
// session still owes the client, then the credit-window loop until
// exhaustion, error, or teardown from either side; count hears every frame
// shipped. It reports how the connection's share of the stream ended, and
// whether the session should now be parked — the connection is gone but
// the stream is healthy, the client neither closed cleanly nor is the
// server shutting down, and the client holds (claimed) or was sent the
// token it would resume with.
func (s *Server) serve(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, ss *session, window int, claimed bool, count func(frame)) (park bool, outcome string) {
	// The connection context ends when the connection dies, the client
	// half-closes, or a resume claim severs it; the stream's outlives it.
	connCtx, connCancel := context.WithCancel(ss.ctx)
	defer connCancel()
	okSent := false
	var clientClosed atomic.Bool
	canPark := func() bool {
		return ss.token != "" && !clientClosed.Load() && ss.ctx.Err() == nil && (claimed || okSent)
	}

	var okPayload []byte
	if ss.token != "" || ss.carries != nil {
		var err error
		if okPayload, err = json.Marshal(okReply{Token: ss.token, Carries: ss.carries}); err != nil {
			writeError(bw, err)
			return false, "error: " + err.Error()
		}
	}
	if ss.token != "" {
		// The token is claimable from the moment the client can know it,
		// not from the moment this handler notices its connection died: a
		// client that redials first finds the session here, severs this
		// connection, and waits for it to be parked. That holds for every
		// connection serving the session, a resumed one too.
		s.registerLive(ss, func() {
			connCancel()
			conn.Close()
		})
	}
	// The handshake is over; from here a silent client is a slow consumer,
	// which the credit window is for.
	conn.SetReadDeadline(time.Time{})
	if writeFrame(bw, frameOK, okPayload) != nil || bw.Flush() != nil {
		return canPark(), "teardown"
	}
	okSent = true

	// Connection reader: credits and close requests. It owns br from
	// here on and exits — cancelling the connection context, never the
	// stream's — when the connection dies or the client half-closes.
	credits := make(chan int64, 1)
	go func() {
		defer connCancel()
		var buf []byte // every control payload is decoded before the next read
		for {
			typ, payload, err := readFrameInto(br, maxControlFrameBytes, &buf)
			if err != nil {
				return
			}
			switch typ {
			case frameCredit:
				n, err := decodeCredit(payload)
				if err != nil {
					return
				}
				select {
				case credits <- n:
				case <-connCtx.Done():
					return
				}
			case frameClose:
				clientClosed.Store(true)
				return
			case frameEndFollow:
				// End the tail but keep the conversation: the stream
				// drains the already-observed files to a normal EOF,
				// which the loop below ships with stats as usual.
				ss.stream.endFollow()
			default:
				return
			}
		}
	}()

	// Once the server enters drain mode, each in-flight session is told
	// exactly once, by an empty drain frame; serving continues here until
	// the client acts on it or the operator closes. drainWatch arms the
	// credit-stall select, so that a stalled session learns of the drain
	// promptly instead of at its next send; nil once the session was told.
	drainWatch := s.drainCh
	notifyDrain := func() bool {
		if drainWatch == nil || !s.draining.Load() {
			return true
		}
		drainWatch = nil
		if writeFrame(bw, frameDrain, nil) != nil || bw.Flush() != nil {
			return false
		}
		s.drainNotices.Inc()
		return true
	}
	// Resend the retained frames a claimed session still owes the client —
	// they were produced before the drop, so they don't pull from the
	// stream and are already within the client's granted window.
	for _, fr := range ss.retained {
		if _, err := bw.Write(fr.wire()); err != nil {
			return canPark(), "teardown"
		}
		count(fr)
	}
	if bw.Flush() != nil {
		return canPark(), "teardown"
	}

	// Credits beyond what was sent confirm nothing; a correct client
	// cannot produce them.
	bank := func(n int64) { ss.acked = min(ss.acked+n, ss.sent) }
	// confirmed waits, behind the stream's last frame, until the client has
	// confirmed consuming everything sent or the connection ends. The
	// connection is never closed over unread
	// credits: the kernel answers that with a reset, which can destroy the
	// very frames still in flight to the client — the stream's tail, or the
	// error frame that explains why it has none.
	confirmed := func() {
		for ss.acked < ss.sent {
			select {
			case n := <-credits:
				bank(n)
				ss.prune()
			case <-connCtx.Done():
				return
			}
		}
	}
	for {
		if !notifyDrain() {
			return canPark(), "teardown"
		}
		if ss.sent-ss.acked >= int64(window) {
			// Credit window exhausted: the serving loop wants to send but
			// the consumer owes credits. Time the episode — this is the
			// wire-level twin of the session's ConsumerStall signal and
			// the credit-stall series /metrics exports.
			stallStart := time.Now()
			s.creditStalls.Inc()
			alive := true
			for alive && ss.sent-ss.acked >= int64(window) {
				select {
				case n := <-credits:
					bank(n)
				case <-drainWatch:
					// Drain began while credit-stalled: tell the client now,
					// so that a fleet can move the stream instead of sitting
					// on an exhausted window against a dying server.
					alive = notifyDrain()
				case <-connCtx.Done():
					alive = false
				}
			}
			s.creditStallNS.Add(int64(time.Since(stallStart)))
			if !alive {
				return canPark(), "teardown"
			}
		}
		// Drain any further banked credits without blocking.
		for {
			select {
			case n := <-credits:
				bank(n)
				continue
			default:
			}
			break
		}
		ss.prune()

		fr, err := ss.stream.next(connCtx)
		if err == io.EOF {
			delivered := writeFrame(bw, frameStats, appendSessionStats(nil, ss.stream.stats())) == nil &&
				writeFrame(bw, frameEOF, nil) == nil && bw.Flush() == nil
			// Written is not received: the last window of frames can still
			// die with the connection, and a resumable client would come
			// back for them. So the handler stays until the client has
			// confirmed consuming its tail (or closed): a resumable session
			// remains claimable that long, and a connection lost before
			// then parks the finished stream with the frames it still owes.
			if delivered {
				confirmed()
			}
			return ss.acked < ss.sent && canPark(), "eof"
		}
		if err != nil {
			if connCtx.Err() != nil && ss.ctx.Err() == nil {
				// The connection died (or the client closed) mid-pull; the
				// stream itself is intact.
				return canPark(), "teardown"
			}
			if s.ctx.Err() != nil {
				// The server is closing, not the stream failing: drop the
				// connection without a verdict, so a resuming client rejoins
				// (here after a restart, or elsewhere) instead of reading its
				// own server's shutdown as a terminal stream error.
				return false, "teardown"
			}
			// The scan's error follows the prefix it delivered, and the
			// client is owed both.
			writeError(bw, err)
			confirmed()
			return false, "error: " + err.Error()
		}
		// The frame is one slice: with nothing buffered ahead of it, bufio
		// passes it to the connection as is, in one Write.
		_, werr := bw.Write(fr.wire())
		if werr == nil {
			werr = bw.Flush()
		}
		ss.sent++
		if werr == nil {
			count(fr)
		}
		if ss.token != "" {
			// Retain until acked: a reconnect resends these instead of
			// re-decoding. Bounded by the credit window.
			ss.retained = append(ss.retained, fr)
		} else {
			ss.stream.recycle(fr)
		}
		if werr != nil {
			return canPark(), "teardown"
		}
	}
}

// writeError best-effort ships an error frame and flushes; the
// connection is about to close either way.
func writeError(bw *bufio.Writer, err error) {
	if writeFrame(bw, frameError, []byte(err.Error())) == nil {
		bw.Flush()
	}
}

// decodeCredit decodes one uvarint credit grant occupying the whole
// payload; zero, oversized, or trailing-byte grants are protocol errors.
func decodeCredit(payload []byte) (int64, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 || n != len(payload) {
		return 0, errors.New("dppnet: malformed credit frame")
	}
	if v == 0 || v > dpp.MaxWindow {
		return 0, fmt.Errorf("dppnet: credit grant %d out of range", v)
	}
	return int64(v), nil
}
