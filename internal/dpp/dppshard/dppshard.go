// Package dppshard is the client-side fleet multiplexer over N
// recd-serve shards: one logical preprocessing session whose file scan
// is partitioned across servers by rendezvous (highest-random-weight)
// hashing, so each DWRF file is decoded — and, under ShareScans, cached
// — on exactly one shard, and the fleet's cache capacity is the sum of
// the shards' budgets rather than N replicas of the same working set.
//
// Each shard serves its file subset as a dppnet unit stream opened on the
// global file list: its files in order, each cut for the rows the plan of
// the whole list carries into it — which the shard computes from its
// catalog — piece by piece: the head rows when a carry enters the file,
// naming that carry, the complete batches as the shard cuts them, then a
// closing record with the raw tail rows. The multiplexer reassembles the
// global file order with the same deposit-by-index ordered-merge discipline
// a local session's fill pool uses (reader.OrderedMerge): a pump deposits a
// reader of the file's piece log, with the carry its head names, at the
// file's first frame and appends the pieces after it to the log every fill
// writes (reader.FileScan), for the reader's one cutter (reader.RunUnits) to take,
// so the fleet emits a shard-cut batch the moment it arrives. Batches whose
// rows stay inside one file pass through untouched; a batch that crosses a
// file boundary is joined client-side from one file's tail and the next
// one's head — which is what makes the merged stream byte-identical to a
// single-server (or fully local) session over the same spec, at any shard
// count and any alignment, with no storage on the client.
//
// Shard death mid-stream re-routes deterministically: the dead shard's
// not-yet-finished files — and only those — are re-hashed over the
// surviving shards (rendezvous hashing moves no other file), new unit
// streams are opened for exactly those files, and the merge resumes at
// the precise piece the dead shard reached: of a file it died inside, the
// new stream's first pieces — the same bytes, by the determinism contract —
// are discarded up to that piece and the rest continue the unit already in
// the merge. The stream stays byte-identical through the kill; see
// docs/ARCHITECTURE.md's determinism contract. A shard that drains moves
// the same way, at a file boundary: its pump reads the stream's drain
// record at each closing record and hands the files it has not served to
// the other shards — unless there are none, when it rides the drain out.
package dppshard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/dpp"
	"repro/internal/dpp/dppnet"
	"repro/internal/reader"
	"repro/internal/storage"
)

// Config describes the fleet a session multiplexes over.
type Config struct {
	// Addrs are the shard servers (host:port), one dppnet endpoint each.
	// Order does not affect routing — rendezvous hashing is symmetric in
	// the member set — but duplicates are rejected.
	Addrs []string
	// Backend is ignored: every file is cut shard-side, at the carry the
	// shard's plan gives it, so the multiplexer reads no storage.
	Backend storage.Backend
	// Resume, when it names a positive MaxAttempts, lets each shard
	// stream survive connection loss (or a shard restart) through the
	// dppnet resume protocol instead of immediately re-routing: a
	// restarted shard rejoins the stream where it left off. A shard that
	// stays unreachable past the policy's attempts still re-routes to
	// the survivors exactly as before.
	Resume dppnet.ResumePolicy
	// AuthToken is the tenant token presented to every shard; leave
	// empty against fleets that run without a front door.
	AuthToken string
}

// Fleet opens multiplexed sessions over a fixed shard set.
type Fleet struct {
	addrs     []string
	resume    dppnet.ResumePolicy
	authToken string
}

// New validates the shard set.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("dppshard: fleet needs at least one shard address")
	}
	seen := make(map[string]struct{}, len(cfg.Addrs))
	for _, a := range cfg.Addrs {
		if a == "" {
			return nil, fmt.Errorf("dppshard: empty shard address")
		}
		if _, dup := seen[a]; dup {
			return nil, fmt.Errorf("dppshard: duplicate shard address %q", a)
		}
		seen[a] = struct{}{}
	}
	return &Fleet{addrs: append([]string(nil), cfg.Addrs...), resume: cfg.Resume, authToken: cfg.AuthToken}, nil
}

// isDrainingRefusal recognizes a server-side open refusal caused by
// drain mode. It is deliberately a substring match on the remote error:
// the refusing server may be behind a front door (front.ErrDraining) or
// bare (dppnet's own refusal), and both spell "draining".
func isDrainingRefusal(err error) bool {
	return errors.Is(err, dppnet.ErrRemote) && strings.Contains(err.Error(), "draining")
}

// route picks the shard for one file by rendezvous hashing: the highest
// fnv64a(file, fingerprint, addr) score wins. Every client with the
// same member set routes identically (no coordination), and removing a
// member re-routes only that member's files — the property failover
// leans on. The fingerprint is hashed in so distinct specs spread their
// cache load independently.
func route(file, fingerprint string, addrs []string) string {
	best := ""
	var bestScore uint64
	for _, a := range addrs {
		h := fnv.New64a()
		h.Write([]byte(file))
		h.Write([]byte{0})
		h.Write([]byte(fingerprint))
		h.Write([]byte{0})
		h.Write([]byte(a))
		s := h.Sum64()
		if best == "" || s > bestScore || (s == bestScore && a < best) {
			best, bestScore = a, s
		}
	}
	return best
}

// group is one shard's route set: the global file indices it serves, in
// increasing order.
type group struct {
	addr    string
	indices []int
}

// regroup routes each global index over the alive shard set, emitting
// groups in alive-set order (deterministic for a given member set).
func regroup(files []string, fingerprint string, indices []int, alive []string) []group {
	byAddr := make(map[string][]int, len(alive))
	for _, idx := range indices {
		a := route(files[idx], fingerprint, alive)
		byAddr[a] = append(byAddr[a], idx)
	}
	out := make([]group, 0, len(byAddr))
	for _, a := range alive {
		if idxs := byAddr[a]; len(idxs) > 0 {
			out = append(out, group{addr: a, indices: idxs})
		}
	}
	return out
}

// shardState tracks one opened unit stream (initial or re-routed).
type shardState struct {
	addr    string
	indices []int
	sess    *dppnet.RemoteUnitSession

	// Written by the owning pump under the session's pmu.
	served  int // files delivered into the merge, to their closing record
	failed  bool
	drained bool             // the shard drained; its remainder was handed off
	stats   dpp.SessionStats // the shard's eof frame's stats
	statsOK bool
}

// maxMergeWindow caps how many files the pumps may have begun ahead of the
// cutter. The window counts files, though their pieces move through it one
// by one, and a file is much larger than a batch, so the cap is far below
// the batch-session buffer cap.
const maxMergeWindow = 256

// Session is one fleet-multiplexed preprocessing stream. It satisfies
// dpp.Stream: Next returns batches in the single-server order until
// io.EOF, and Close tears down every shard stream. Next is
// single-consumer, as with every other session kind.
//
// It is the shared session shell (dpp.Shell) over batches, fed by the
// merge: the output buffer, consumer-stall accounting, first-error rule,
// recorded outcome and teardown are the ones every local session has.
type Session struct {
	fleet       *Fleet
	spec        dpp.Spec
	files       []string
	fingerprint string

	// sh owns the lifecycle; the pumps and the merge loop run on it.
	sh dpp.Shell[*reader.Batch]
	// merge holds one slot per file of the global plan: the unit its shard
	// is delivering, or the stream's fate.
	merge *reader.OrderedMerge[reader.Unit]
	// mux is the session's local reader, the cutter: it joins the batches
	// that cross files from tails and heads, and has no store to read.
	mux *reader.Reader
	// pumps tracks only the shard pump goroutines: a cleanly exhausted
	// merge waits for them before closing the stream, so every healthy
	// shard's eof frame is drained by the time the consumer
	// sees io.EOF and reads Stats.
	pumps sync.WaitGroup

	// pmu guards the shard set and teardown flag; sh.Go for re-route
	// pumps happens under pmu with a stopped check, so a racing teardown
	// can never wait past an add.
	pmu  sync.Mutex
	dead map[string]bool
	// partials holds, by global index, the log of each file whose unit is in
	// the merge and whose closing record is not. It outlives a pump whose
	// shard died inside the file: the pump that is re-routed the file
	// discards as many pieces of its own stream as went through already and
	// continues the same unit.
	partials      map[int]*reader.FileScan
	shards        []*shardState
	stopped       bool
	reroutes      int64 // shard deaths survived mid-stream
	drainHandoffs int64 // shard drains handed off mid-stream
}

var _ dpp.Stream = (*Session)(nil)

// Open routes spec.Files over the fleet and starts one unit stream per
// shard with files to serve. The spec must name its files explicitly —
// routing is by file, so the client must own the list. Admission errors
// a shard reports (invalid spec, a tenant's session cap) fail the whole Open;
// shards that are unreachable at Open are treated exactly like a
// mid-stream death: marked dead, their files re-routed to survivors.
func (f *Fleet) Open(ctx context.Context, spec dpp.Spec) (*Session, error) {
	if len(spec.Files) == 0 {
		return nil, fmt.Errorf("dppshard: fleet session needs an explicit file list")
	}
	files := spec.Files
	fingerprint := spec.Spec.Fingerprint()

	mux, err := reader.NewReader(nil, spec.Spec)
	if err != nil {
		return nil, err
	}

	s := &Session{
		fleet:       f,
		spec:        spec,
		files:       files,
		fingerprint: fingerprint,
		mux:         mux,
		dead:        make(map[string]bool),
		partials:    make(map[int]*reader.FileScan),
	}
	s.merge = reader.NewOrderedMerge[reader.Unit](len(files), min(len(f.addrs)*spec.Window(), maxMergeWindow), nil)
	s.sh.Open(ctx, dpp.SystemClock{}, spec.Window())
	s.sh.Pool = func() dpp.SchedulerStats {
		s.pmu.Lock()
		defer s.pmu.Unlock()
		return dpp.SchedulerStats{Workers: len(s.aliveLocked()), WorkerStall: s.merge.Stall()}
	}
	s.sh.HaltOn(func() {
		s.pmu.Lock()
		s.stopped = true
		s.pmu.Unlock()
		s.merge.Abort()
	})

	// Open the initial shard streams synchronously, re-routing around
	// unreachable shards; only then do pumps start, so Open's error
	// semantics match a single server's (a spec the service rejects
	// fails here, not as a mid-stream error).
	queue := regroup(files, fingerprint, allIndices(len(files)), f.addrs)
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		rus, err := s.openShard(g)
		if err != nil {
			if (errors.Is(err, dppnet.ErrRemote) && !isDrainingRefusal(err)) || ctx.Err() != nil {
				s.abandonOpen()
				return nil, err
			}
			// Transport failure — or a shard refusing opens because it is
			// draining: either way the shard is dead to this session; its
			// files re-route over the survivors.
			s.dead[g.addr] = true
			alive := s.aliveLocked()
			if len(alive) == 0 {
				s.abandonOpen()
				return nil, fmt.Errorf("dppshard: no reachable shards: %w", err)
			}
			queue = append(queue, regroup(files, fingerprint, g.indices, alive)...)
			continue
		}
		s.shards = append(s.shards, &shardState{addr: g.addr, indices: g.indices, sess: rus})
	}

	for _, st := range s.shards {
		s.pumps.Add(1)
		s.sh.Go(func() { s.runPump(st) })
	}
	s.sh.Go(s.runMerge)
	return s, nil
}

func allIndices(n int) []int {
	idxs := make([]int, n)
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// openShard opens one unit stream serving exactly g's files of the plan.
func (s *Session) openShard(g group) (*dppnet.RemoteUnitSession, error) {
	cl := dppnet.NewClient(g.addr)
	cl.Resume = s.fleet.resume
	cl.AuthToken = s.fleet.authToken
	return cl.OpenUnits(s.sh.Ctx(), s.spec, g.indices)
}

// abandonOpen tears down a half-built session whose Open is failing.
func (s *Session) abandonOpen() {
	s.sh.Close()
	for _, st := range s.shards {
		st.sess.Close()
	}
}

// aliveLocked returns the fleet addresses this session has not declared
// dead, in fleet order. Callers hold pmu (or, during Open, have sole
// ownership).
func (s *Session) aliveLocked() []string {
	alive := make([]string, 0, len(s.fleet.addrs))
	for _, a := range s.fleet.addrs {
		if !s.dead[a] {
			alive = append(alive, a)
		}
	}
	return alive
}

// runPump drives one shard stream: wait for each of its global indices
// to enter the merge window (backpressure), then move the file's pieces
// into the merge as they arrive. A shard that dies mid-stream hands its
// remaining indices — from the file it died inside, if any — to
// rerouteShard, and so does one that drained, from the file after the one
// it just closed; a shard that finishes cleanly drains the trailing stats
// frame so the fleet's aggregate accounting includes it.
func (s *Session) runPump(st *shardState) {
	defer s.pumps.Done()
	defer st.sess.Close()
	for pos, gidx := range st.indices {
		if !s.merge.WaitWindow(gidx) {
			return // merge aborted: teardown or a terminal error elsewhere
		}
		if err := s.pumpFile(st, gidx); err != nil {
			if s.sh.Ctx().Err() != nil || errors.Is(err, context.Canceled) {
				return
			}
			if err == io.EOF {
				err = fmt.Errorf("dppshard: shard %s ended after %d of %d files", st.addr, pos, len(st.indices))
			}
			s.rerouteShard(st, pos, err)
			return
		}
		s.pmu.Lock()
		st.served = pos + 1
		s.pmu.Unlock()
		if pos+1 < len(st.indices) && st.sess.Drained() && s.handOff(st) {
			// Graceful drain handoff, between files: only the shard's
			// *unconsumed* files move — everything already merged stays
			// merged, and no already-served file is ever refetched or
			// re-decoded.
			s.rerouteShard(st, pos+1, fmt.Errorf("dppshard: shard %s drained", st.addr))
			return
		}
	}
	// Subset delivered; the next read is the trailing stats + EOF.
	if _, err := st.sess.NextPiece(s.sh.Ctx()); err == io.EOF {
		if stats, ok := st.sess.Stats(); ok {
			s.pmu.Lock()
			st.stats, st.statsOK = stats, true
			s.pmu.Unlock()
		}
	}
}

// handOff decides whether st's drained shard hands its unserved files off:
// only when another shard is alive to take them. It counts the handoff.
func (s *Session) handOff(st *shardState) bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if !slices.ContainsFunc(s.aliveLocked(), func(a string) bool { return a != st.addr }) {
		return false
	}
	st.drained = true
	s.drainHandoffs++
	return true
}

// pumpFile moves the next file of st's stream, global index gidx, into the
// merge: its unit, a reader of the file's log cut for the carry its head
// names (none without a head), is deposited at the first frame and each
// piece follows into the log, to the closing record. Of a file another shard
// died inside, the pieces already merged are read and dropped first.
func (s *Session) pumpFile(st *shardState, gidx int) error {
	s.pmu.Lock()
	feed := s.partials[gidx]
	s.pmu.Unlock()
	skip := 0
	if feed != nil {
		skip = feed.Sent()
	}
	for {
		piece, err := st.sess.NextPiece(s.sh.Ctx())
		if err != nil {
			return err
		}
		if skip > 0 {
			if piece.Tail != nil {
				return fmt.Errorf("dppshard: shard %s closed %s after fewer than the %d pieces already merged", st.addr, piece.File, feed.Sent())
			}
			skip--
			continue
		}
		if feed == nil {
			feed = reader.NewFileScan(piece.Carry, false)
			feed.Follow(s.merge, gidx, reader.Unit{File: piece.File}, nil)
			s.pmu.Lock()
			s.partials[gidx] = feed
			s.pmu.Unlock()
		}
		if err := feed.Send(reader.Piece{Batch: piece.Batch, Rows: piece.Rows()}); err != nil {
			return err
		}
		if piece.Tail != nil {
			feed.Close(nil)
			s.pmu.Lock()
			delete(s.partials, gidx)
			s.pmu.Unlock()
			return nil
		}
	}
}

// fail ends the stream at file gidx with err, in file order: after the
// pieces of a file already begun, or as the file's unit.
func (s *Session) fail(gidx int, err error) {
	s.pmu.Lock()
	feed := s.partials[gidx]
	s.pmu.Unlock()
	if feed != nil {
		feed.Close(err)
		return
	}
	s.merge.Deposit(gidx, reader.Unit{Err: err})
}

// rerouteShard declares st's shard dead and re-routes its unfinished
// files over the survivors, opening fresh unit streams for exactly
// those files. Rendezvous hashing guarantees no other shard's files
// move, and the merge consumes by global index, so the stream resumes
// at the precise piece the dead shard reached (pumpFile). With no
// survivors left, the failure surfaces in-order as the stream error at
// the first unfinished file.
func (s *Session) rerouteShard(st *shardState, pos int, cause error) {
	remaining := st.indices[pos:]
	s.pmu.Lock()
	s.dead[st.addr] = true
	if !st.drained {
		// A drain handoff is planned movement, not a shard death; it
		// counts under drainHandoffs (already charged) instead.
		st.failed = true
		s.reroutes++
	}
	alive := s.aliveLocked()
	stopped := s.stopped
	s.pmu.Unlock()
	if stopped {
		return
	}
	if len(alive) == 0 {
		s.fail(remaining[0], fmt.Errorf("dppshard: shard %s died with no survivors: %w", st.addr, cause))
		return
	}
	queue := regroup(s.files, s.fingerprint, remaining, alive)
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		rus, err := s.openShard(g)
		if err != nil {
			if s.sh.Ctx().Err() != nil {
				return
			}
			if errors.Is(err, dppnet.ErrRemote) && !isDrainingRefusal(err) {
				// The survivor is up but refused the session (e.g. its
				// admission cap): not a routing problem, a terminal one.
				s.fail(g.indices[0], fmt.Errorf("dppshard: re-route to %s failed: %w", g.addr, err))
				continue
			}
			s.pmu.Lock()
			s.dead[g.addr] = true
			alive := s.aliveLocked()
			s.pmu.Unlock()
			if len(alive) == 0 {
				s.fail(g.indices[0], fmt.Errorf("dppshard: shard %s died with no survivors: %w", g.addr, err))
				return
			}
			queue = append(queue, regroup(s.files, s.fingerprint, g.indices, alive)...)
			continue
		}
		st2 := &shardState{addr: g.addr, indices: g.indices, sess: rus}
		s.pmu.Lock()
		if s.stopped {
			s.pmu.Unlock()
			rus.Close()
			return
		}
		s.shards = append(s.shards, st2)
		// Safe relative to teardown's wait: this pump's own slot is still
		// held, so neither counter can be at zero here.
		s.pumps.Add(1)
		s.sh.Go(func() { s.runPump(st2) })
		s.pmu.Unlock()
	}
}

// runMerge pulls the shards' units in global file order into the cutter
// and settles the stream: shard-cut batches pass through as they arrive, a
// file's head joins the rows carried into it, and the final short batch is
// cut from the last tail.
func (s *Session) runMerge() {
	i := 0
	err := s.mux.RunUnits(s.sh.Ctx(), func() (reader.Unit, bool) {
		u, ok := s.merge.Await(i) // false past the last file, or aborted
		i++
		return u, ok
	}, s.sh.Emit)
	if err == nil {
		// Clean exhaustion: every deposit was consumed, so the pumps are
		// past their last unit and only draining eof frames —
		// a prompt wait that makes Stats complete at io.EOF.
		s.pumps.Wait()
	}
	s.sh.Settle(err, s.mux.Stats())
}

// Next returns the fleet stream's next batch — the single-server order,
// whatever the shard count or failover history. The contract matches
// every other session kind: batches until io.EOF, the first error, a
// cancelled ctx, or dpp.ErrClosed.
func (s *Session) Next(ctx context.Context) (*reader.Batch, error) { return s.sh.Pull(ctx) }

// Close tears the fleet session down across every shard: the pumps and the
// merge stop and shard connections close as their pumps exit. Idempotent;
// always returns nil. Batches already returned by Next remain valid.
func (s *Session) Close() error { return s.sh.Close() }

// Stats aggregates the fleet session's accounting: every shard's
// trailing stats (decode work, egress, per-shard cache traffic) summed
// with the multiplexer's own reader work (the batches that cross files,
// joined from tails and heads; it decodes nothing). For a cold scan the
// aggregate reader counters equal the single-server session's exactly;
// shard stats are complete once Next has returned io.EOF (a shard killed
// mid-stream loses its trailing frame — its completed work is absent,
// which ShardStats surfaces per shard).
func (s *Session) Stats() dpp.SessionStats {
	agg := s.sh.Stats() // the mux's reader work, the alive-shard pool, the stalls
	s.pmu.Lock()
	defer s.pmu.Unlock()
	for _, st := range s.shards {
		if st.statsOK {
			agg.Reader.Add(st.stats.Reader)
			agg.Cache.Hits += st.stats.Cache.Hits
			agg.Cache.Misses += st.stats.Cache.Misses
		}
	}
	return agg
}

// ShardStat is one shard stream's view in ShardStats.
type ShardStat struct {
	// Addr is the shard's address; re-routed file sets appear as their
	// own entries (an address can host several streams after failover).
	Addr string
	// Files is the number of files routed to this stream; Served is how
	// many it delivered into the merge, to their closing record.
	Files, Served int
	// Failed marks a stream whose shard died mid-stream. Drained marks a
	// stream whose shard drained gracefully — its unconsumed files were
	// handed off to survivors without a byte lost.
	Failed  bool
	Drained bool
	// Stats is the shard's trailing accounting; valid when StatsOK (the
	// stream completed and delivered its eof frame).
	Stats   dpp.SessionStats
	StatsOK bool
	// Reconnects counts how many times this stream resumed over a new
	// connection under the fleet's resume policy (0 without one).
	Reconnects int64
}

// ShardStats returns the per-shard-stream accounting plus the count of
// shard deaths survived — the fleet-level cache-partitioning evidence
// (each file's decode shows up in exactly one shard's misses) and the
// failover audit trail.
func (s *Session) ShardStats() (stats []ShardStat, reroutes int64) {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	out := make([]ShardStat, 0, len(s.shards))
	for _, st := range s.shards {
		out = append(out, ShardStat{
			Addr:       st.addr,
			Files:      len(st.indices),
			Served:     st.served,
			Failed:     st.failed,
			Drained:    st.drained,
			Stats:      st.stats,
			StatsOK:    st.statsOK,
			Reconnects: st.sess.Reconnects(),
		})
	}
	return out, s.reroutes
}

// DrainHandoffs reports how many shard streams this session moved off a
// draining server mid-stream — the soak harness's evidence that a
// SIGTERM'd shard handed its work over instead of erroring.
func (s *Session) DrainHandoffs() int64 {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return s.drainHandoffs
}
