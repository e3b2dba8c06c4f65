package dpp

import (
	"context"

	"repro/internal/dwrf"
	"repro/internal/reader"
)

// UnitPiece is one item of a unit stream, what a preprocessing shard
// serves to the fleet multiplexer (dppshard) and a server to a remote
// session's cutter: the head of a file entered with carried rows, one of the
// file's complete batches, in row order, or — last — the file's closing
// record with its carry-out tail rows. Shipping file-aligned pieces instead
// of a batch stream is what lets the client-side cutter reassemble the global
// file order byte-identically — batches that cross file boundaries are
// joined client-side from the heads and tails, so they never depend on how
// files were split across shards. How many pieces a file has depends only on
// its rows, its carry and the spec, never on whether a cache served it.
type UnitPiece struct {
	// Index is the file's position in the session's own file list (the
	// shard's subset, not the fleet's global order — the mux owns that
	// mapping), and File its path.
	Index int
	File  string
	// Head, set alone, is a file's first piece when the plan carries rows
	// into it: the rows that complete the batch straddling into the file,
	// in a chunk that names the file's schema. Carry is the rows it
	// completes, the ones the plan carries into the file.
	Head  *dwrf.Chunk
	Carry int
	// Batch is one complete batch of the file. Batches a cache served are
	// shared and must be treated as read-only, which consumers already
	// must: pieces never alias producer state.
	Batch *reader.Batch
	// Tail, set alone, closes the file: the rows after its last complete
	// batch, none when it ends on a batch boundary, in a chunk that names
	// the file's schema either way.
	Tail *dwrf.Chunk
	// Hit, on a local session's closing record, reports whether the file
	// was served from the service's cross-session ScanCache rather than
	// decoded for this session. It does not cross the wire: a remote
	// stream's pieces leave it false, and its session stats count the
	// cache's hits.
	Hit bool
}

// Rows is a head's rows, or a closing record's; nil on a batch.
func (p UnitPiece) Rows() *dwrf.Chunk {
	if p.Head != nil {
		return p.Head
	}
	return p.Tail
}

// UnitSession is a session that yields its files piece by piece, in
// file-list order, instead of a batch stream — what every dppnet session
// serves. NextPiece and Close may be called from different goroutines, but
// NextPiece itself is single-consumer.
//
// It is a Session with the unit emitter where the cutter is: the same pool
// over the same reader.ScanQueue, resizable and autoscaled, the same tailer
// when it follows a table, each file cut at the carry the plan of the whole
// file list gives it — exactly as a batch session's worker cuts it, wherever
// the files before it are served — and each unit's pieces emitted as its
// worker hands them over, strictly in order: a file's first batch leaves
// while its third stripe is being fetched. Its output buffer holds pieces —
// batches, and heads and tails smaller than one — so its bound is the one a
// batch session's has: Spec.Window().
type UnitSession struct {
	core[UnitPiece]
}

// OpenUnits admits a unit session under the same admission path,
// catalog resolution, and teardown rules as Open, serving the files of the
// spec's plan at the indices serves names — increasing, and inside the
// plan, which the caller checks — or every file when serves is empty, the
// files a Follow spec's tail lands included. It is the server-side entry
// point of dppnet; training jobs consume batch sessions.
func (s *Service) OpenUnits(ctx context.Context, spec Spec, serves []int) (*UnitSession, error) {
	spec, plan, tail, err := s.plan(spec)
	if err != nil {
		return nil, err
	}
	if len(serves) > 0 {
		served := make([]reader.Planned, len(serves))
		for i, at := range serves {
			served[i] = plan[at]
		}
		plan = served
	}
	return admit(s, func(id int64) (*UnitSession, error) {
		u := &UnitSession{}
		return u, u.start(ctx, s, id, spec, plan, tail, func(q *reader.ScanQueue) (reader.Stats, error) {
			return reader.Stats{}, u.emitUnits(q)
		})
	})
}

// emitUnits hands the pieces of the queue's units to the consumer, strictly
// in file-list order, until the scan set ends or a unit ends in an error —
// after the pieces that preceded it.
func (u *UnitSession) emitUnits(q *reader.ScanQueue) error {
	var i int
	var it reader.Unit
	head := false // the next piece is the head of a file entered with a carry
	emit := func(p reader.Piece) error {
		up := UnitPiece{Index: i, File: it.File, Batch: p.Batch, Tail: p.Rows, Hit: it.Hit && p.Rows != nil}
		if head {
			up.Head, up.Carry, up.Tail, up.Hit = p.Rows, it.Carry, nil, false
		}
		head = false
		return u.Emit(up)
	}
	for ; ; i++ {
		var ok bool
		if it, ok = q.Await(i); !ok { // past the last file, or aborted: teardown owns the outcome
			return nil
		}
		if it.Err != nil {
			return it.Err
		}
		head = it.Carry > 0
		if err := it.Pieces(emit); err != nil {
			return err
		}
	}
}

// NextPiece returns the session's next piece, strictly in file-list and row
// order. It blocks until a piece is buffered, the scan is exhausted
// (io.EOF), a scan fails (the first error, after the in-order prefix of
// pieces that preceded it), ctx is cancelled, or the session is closed
// (ErrClosed). A batch piece counts as a batch the service served.
func (u *UnitSession) NextPiece(ctx context.Context) (UnitPiece, error) {
	p, err := u.Pull(ctx)
	if err == nil && p.Batch != nil {
		u.svc.noteBatch()
	}
	return p, err
}
