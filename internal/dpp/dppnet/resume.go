package dppnet

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dpp"
)

// The resumable-session table's bounds: how long a dropped session stays
// parked, and how many stay parked per server.
const (
	defaultResumeTTL = 45 * time.Second
	defaultResumeMax = 64
)

// resumeParkWait bounds how long a resume claim waits for the connection
// it just severed to park its session. Parking is a handful of local
// steps once the old handler notices, so the bound only matters when that
// handler is wedged; the claim then fails like any unknown token and the
// client falls back to offset replay.
const resumeParkWait = 2 * time.Second

// unitWire streams a unit session piece by piece, each piece a complete
// piece frame — type, length, stream index and rolling chain hash already
// stamped — so the serving loop and the resume table's retained-frame
// buffer handle frames alone.
//
// A frame's buffer belongs to whoever holds the frame until it goes back
// through recycle: the loop returns it once the frame can no longer be
// resent (written, for a session that cannot resume; confirmed consumed,
// for one that can), so a stream has at most window+1 buffers, each handed
// out holding frameReserve bytes of header room for the content to be
// appended behind. It is used from one goroutine at a time — the serving
// loop of the connection, or of the next one after a park.
type unitWire struct {
	us    *dpp.UnitSession
	chain uint64
	idx   int64
	free  [][]byte
}

func newUnitWire(us *dpp.UnitSession) *unitWire {
	return &unitWire{us: us, chain: chainSeed}
}

func (u *unitWire) buffer() []byte {
	if n := len(u.free); n > 0 {
		buf := u.free[n-1]
		u.free = u.free[:n-1]
		return buf[:frameReserve]
	}
	return make([]byte, frameReserve)
}

func (u *unitWire) recycle(fr frame) { u.free = append(u.free, fr.buf) }

func (u *unitWire) next(ctx context.Context) (frame, error) {
	p, err := u.us.NextPiece(ctx)
	if err != nil {
		return frame{}, err
	}
	buf := appendPiece(u.buffer(), p)
	u.chain = chainStep(u.chain, buf[frameReserve:])
	fr := sealFrame(buf, u.idx, u.chain)
	u.idx++
	return fr, nil
}

// session is the server's half of one wire session: the live stream (its
// context is the server's, not a connection's), where the client is in it,
// and the identity facts a reconnect handshake must match. A fresh open
// builds one and a claim of its token returns it; one connection at a time
// serves it, and between connections the resume table parks it whole.
type session struct {
	// token names a resumable session to its client; empty for one that
	// ends with its connection.
	token       string
	fingerprint string
	filesHash   uint64
	// tenant scopes the session to the tenant that opened it: a resume
	// handshake must authenticate as the same tenant, so one tenant's
	// leaked token cannot splice another tenant's client into its stream.
	tenant string

	ctx    context.Context
	cancel context.CancelFunc
	stream *unitWire

	// sent is the stream index the next pulled frame gets; acked is the
	// lowest index the client has not confirmed consuming. A resumable
	// session retains the frames [acked, sent) — a reconnect is resent
	// them instead of anything being decoded again — which the credit
	// window bounds: a client is never owed more unconfirmed frames than
	// the window it granted.
	sent, acked int64
	retained    []frame

	expires time.Time
	// seq is the session's park order (monotonic per server): capacity
	// eviction breaks expires ties on it, so the evicted session is
	// deterministic even when many are parked within one clock tick.
	seq   int64
	inUse bool

	// Set by registerLive, for the session's time in the live table: sever
	// kills the connection serving it (its handler then parks), and parked
	// is closed once that handler has parked the session or given it up.
	sever  func()
	parked chan struct{}
}

// prune hands the buffers of the retained frames the client has confirmed
// back to the stream. A session that cannot resume retains nothing.
func (ss *session) prune() {
	drop := len(ss.retained) - int(ss.sent-ss.acked)
	if drop <= 0 {
		return
	}
	for _, fr := range ss.retained[:drop] {
		ss.stream.recycle(fr)
	}
	ss.retained = ss.retained[drop:]
}

// close ends the stream; whoever holds the session last calls it.
func (ss *session) close() {
	ss.cancel()
	ss.stream.us.Close()
}

// resumeTable is the server's bounded, TTL-evicted table of parked
// sessions. The janitor goroutine starts lazily on first park and exits
// with the server context.
type resumeTable struct {
	mu      sync.Mutex
	entries map[string]*session
	// live holds the tokens issued to sessions whose first connection is
	// still being served. A client can redial faster than the server
	// notices that connection is dead, so a claim must be able to find —
	// and sever — a session that has not parked yet. Live entries are
	// outside the parked table's capacity and TTL: they are bounded by the
	// open connections.
	live    map[string]*session
	janitor bool
	// parkSeq numbers parks; session.seq is drawn from it under mu.
	parkSeq int64
}

// now reads the resume table's clock: the resumeClock seam when a test
// installed one (to park entries at a frozen instant), the wall clock
// otherwise.
func (s *Server) now() time.Time {
	if s.resumeClock != nil {
		return s.resumeClock()
	}
	return time.Now()
}

// newResumeToken mints an opaque 32-hex-char session token.
func newResumeToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// fileListHash summarizes a spec's explicit file plan, and the indices of
// it a stream serves, so a resume handshake naming a different plan is
// rejected instead of silently merging two different streams.
// The hash folds each chunk's length, and the file count first, so no two
// (files, serves) pairs fold the same chunks.
func fileListHash(files []string, serves []int) uint64 {
	h := chainStep(chainSeed, binary.AppendUvarint(nil, uint64(len(files))))
	for _, f := range files {
		h = chainStep(h, []byte(f))
	}
	for _, at := range serves {
		h = chainStep(h, binary.AppendUvarint(nil, uint64(at)))
	}
	return h
}

func (s *Server) resumeTTL() time.Duration {
	if s.parkTTL > 0 {
		return s.parkTTL
	}
	return defaultResumeTTL
}

func (s *Server) resumeMax() int {
	if s.parkMax != 0 {
		return s.parkMax
	}
	return defaultResumeMax
}

// park stores (or re-stores, for a claimed entry) a dropped resumable
// session's state. It refuses — the caller then closes the stream —
// when parking is disabled, the server is shutting down, or the table
// is full of in-use entries.
func (s *Server) park(e *session) bool {
	// A draining server refuses to park: parked state anchors a future
	// reconnect *here*, and a draining server admits none.
	if s.resumeMax() < 0 || s.ctx.Err() != nil || s.draining.Load() {
		return false
	}
	var evict *session
	s.resume.mu.Lock()
	if s.resume.entries == nil {
		s.resume.entries = make(map[string]*session)
	}
	if _, ok := s.resume.entries[e.token]; !ok && len(s.resume.entries) >= s.resumeMax() {
		// Full: evict the entry closest to expiry that nobody is using,
		// breaking expires ties on park order. Without the seq tiebreak
		// the choice fell to map iteration order, so N entries parked in
		// the same clock tick (coarse-resolution clocks make that easy)
		// could evict a *younger* entry than the one a reconnecting
		// client still had a live claim window on.
		for _, cand := range s.resume.entries {
			if cand.inUse {
				continue
			}
			if evict == nil || cand.expires.Before(evict.expires) ||
				(cand.expires.Equal(evict.expires) && cand.seq < evict.seq) {
				evict = cand
			}
		}
		if evict == nil {
			s.resume.mu.Unlock()
			return false
		}
		delete(s.resume.entries, evict.token)
	}
	s.resume.parkSeq++
	e.seq = s.resume.parkSeq
	e.expires = s.now().Add(s.resumeTTL())
	e.inUse = false
	// Counted before a reconnect can claim it, so a stream resumed from it
	// never reads the server's stats without its park.
	s.parkedSessions.Inc()
	s.resume.entries[e.token] = e
	s.resume.settleLiveLocked(e.token)
	s.startJanitorLocked()
	s.resume.mu.Unlock()
	if evict != nil {
		s.resumeExpired.Inc()
		evict.close()
	}
	return true
}

// registerLive enters the token of a session a connection now serves into
// the live table. sever
// must make the connection's serving loop exit the way a dead connection
// does, so that it parks.
func (s *Server) registerLive(e *session, sever func()) {
	e.sever, e.parked = sever, make(chan struct{})
	s.resume.mu.Lock()
	if s.resume.live == nil {
		s.resume.live = make(map[string]*session)
	}
	s.resume.live[e.token] = e
	s.resume.mu.Unlock()
}

// settleLiveLocked takes token out of the live table, if it is there, and
// wakes the claims waiting on it; resume.mu held.
func (t *resumeTable) settleLiveLocked(token string) {
	if e := t.live[token]; e != nil {
		delete(t.live, token)
		close(e.parked)
	}
}

// claimResume hands a parked entry to exactly one reconnecting client
// after checking everything the handshake asserts: the token is live and
// unclaimed, the tenant that authenticated matches the tenant that
// parked, the spec fingerprint and file plan match, and
// the offset lies inside the retained window.
//
// A client that redials faster than the server notices its old
// connection is dead presents a token that is issued but not parked yet.
// That is not an unknown token: the claim severs the old connection and
// waits, bounded, for its handler to park, then runs the same checks.
func (s *Server) claimResume(token, tenant, fingerprint string, filesHash uint64, offset int64) (*session, error) {
	s.resume.mu.Lock()
	defer s.resume.mu.Unlock()
	if le := s.resume.live[token]; le != nil && le.tenant == tenant {
		s.resume.mu.Unlock()
		le.sever()
		wait := time.NewTimer(resumeParkWait)
		select {
		case <-le.parked:
		case <-s.ctx.Done():
		case <-wait.C:
		}
		wait.Stop()
		s.resume.mu.Lock()
	}
	e := s.resume.entries[token]
	if e == nil || s.now().After(e.expires) {
		return nil, errors.New("dppnet: unknown or expired resume token")
	}
	if e.tenant != tenant {
		// Deliberately the same shape as a dead token: a cross-tenant
		// probe learns nothing about whether the token exists.
		return nil, errors.New("dppnet: unknown or expired resume token")
	}
	if e.inUse {
		return nil, errors.New("dppnet: resume token already in use")
	}
	if e.fingerprint != fingerprint {
		return nil, errors.New("dppnet: resume spec fingerprint mismatch")
	}
	if e.filesHash != filesHash {
		return nil, errors.New("dppnet: resume file plan mismatch")
	}
	if offset < e.acked || offset > e.sent {
		return nil, fmt.Errorf("dppnet: resume offset %d outside retained window [%d,%d]", offset, e.acked, e.sent)
	}
	e.inUse = true
	return e, nil
}

// dropResume removes a token's entry, live or parked, without closing its
// stream — the caller owns the stream (it just finished serving it).
func (s *Server) dropResume(token string) {
	s.resume.mu.Lock()
	delete(s.resume.entries, token)
	s.resume.settleLiveLocked(token)
	s.resume.mu.Unlock()
}

// startJanitorLocked launches the TTL sweeper once; resume.mu held.
func (s *Server) startJanitorLocked() {
	if s.resume.janitor {
		return
	}
	s.resume.janitor = true
	interval := s.resumeTTL() / 2
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > 5*time.Second {
		interval = 5 * time.Second
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				s.evictExpiredResume()
			}
		}
	}()
}

// evictExpiredResume closes and forgets every expired, unclaimed entry.
func (s *Server) evictExpiredResume() {
	now := s.now()
	var dead []*session
	s.resume.mu.Lock()
	for tok, e := range s.resume.entries {
		if !e.inUse && now.After(e.expires) {
			delete(s.resume.entries, tok)
			dead = append(dead, e)
		}
	}
	s.resume.mu.Unlock()
	for _, e := range dead {
		s.resumeExpired.Inc()
		e.close()
	}
}

// drainResume closes every parked session; called from Server.Close
// after the handlers have drained, so nothing races the table.
func (s *Server) drainResume() {
	s.resume.mu.Lock()
	entries := s.resume.entries
	s.resume.entries = nil
	s.resume.mu.Unlock()
	for _, e := range entries {
		e.close()
	}
}
