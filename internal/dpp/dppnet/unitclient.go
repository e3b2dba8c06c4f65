package dppnet

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/dpp"
)

// OpenUnits opens a file-unit session on the remote service
// (dpp.Service.OpenUnits over the wire) serving the files of spec.Files —
// the fleet's global file list — at the indices serves names, strictly
// increasing: each file's head, batches and closing record arrive strictly
// in that order instead of one batch stream, a file's first batch while the
// shard is still reading the file. This is how the fleet multiplexer
// (dppshard) consumes a shard; training loops consume batch sessions via
// Open.
//
// The server plans the whole list, so each served file is cut for the rows
// every file before it carries in, served here or not, and its ok reply
// names those carries (Carries). Files travel by subset index, so the
// client must own the list the indices name. The credit window counts
// payload frames in flight — heads, batch frames and closing records alike
// — and is sized like a batch session's (spec.Window()), the bound a local
// unit session's output buffer has. Resume works exactly as for a batch
// session, the offset counting the same frames and the chain hash verifying
// the continued stream.
func (c *Client) OpenUnits(ctx context.Context, spec dpp.Spec, serves []int) (*RemoteUnitSession, error) {
	if err := checkServes(true, serves, len(spec.Files)); err != nil {
		return nil, err
	}
	rus := &RemoteUnitSession{}
	if err := rus.start(ctx, c, spec, unitKind(spec, serves, &rus.carries)); err != nil {
		return nil, err
	}
	return rus, nil
}

// unitKind is the file-unit stream serving spec's files at serves: heads,
// batch frames and closing records, and a drain frame surfaces. Its ok
// reply must name one carry per served file, each under the batch size, and
// the same ones on every connection of the stream; they land in carries.
// Its decode hook reads a batch frame as the batch kind's does and gives the
// batch to the file the cursor stands in; a file-unit frame is chain | unit,
// the unit leading with its own index — the file's head if the file is
// carried into and nothing of it has arrived, else its closing record.
// Heads come before batches and closing records must arrive with strictly
// consecutive subset indices continuing from the cursor — a server
// violating either is protocol-corrupt, and failing here keeps the fleet
// merge from ever seeing a miscut, misordered or aliased slot.
func unitKind(spec dpp.Spec, serves []int, carries *[]int) kind[dpp.UnitPiece] {
	files, tail := make([]string, len(serves)), spec.ConsumedFeatures()
	for i, at := range serves {
		files[i] = spec.Files[at]
	}
	accept := func(ok okReply) error {
		if len(ok.Carries) != len(files) {
			return fmt.Errorf("dppnet: ok reply names %d carries for %d served files", len(ok.Carries), len(files))
		}
		for _, c := range ok.Carries {
			if c < 0 || c >= spec.BatchSize {
				return fmt.Errorf("dppnet: ok reply carries %d rows into a file, outside [0,%d)", c, spec.BatchSize)
			}
		}
		if *carries != nil && !slices.Equal(*carries, ok.Carries) {
			return fmt.Errorf("dppnet: a resumed unit stream's carries differ from its first connection's")
		}
		*carries = ok.Carries
		return nil
	}
	decode := func(typ byte, payload []byte, at cursor) (dpp.UnitPiece, cursor, error) {
		if at.files >= len(files) {
			return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: frame %#x after the last of %d files", typ, len(files))
		}
		head := (*carries)[at.files] > 0 && !at.inFile
		if typ != frameFileUnit {
			if head {
				return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: batch frame ahead of the head of file %d", at.files)
			}
			b, at, err := decodeBatch(typ, payload, at)
			if err != nil {
				return dpp.UnitPiece{}, at, err
			}
			at.inFile = true
			return dpp.UnitPiece{Index: at.files, File: files[at.files], Batch: b}, at, nil
		}
		fchain, body, err := decodeUnitFrame(payload)
		if err != nil {
			return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: corrupt file-unit frame: %w", err)
		}
		p, err := decodeFileUnit(body, tail)
		if err != nil {
			return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: corrupt file-unit frame: %w", err)
		}
		if p.Index != at.files {
			return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: file unit %d out of order (want %d of %d)", p.Index, at.files, len(files))
		}
		if at.chain, err = chainUnit(at.chain, body); err != nil {
			return dpp.UnitPiece{}, at, err
		}
		if at.chain != fchain {
			return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: stream hash mismatch at file unit %d", p.Index)
		}
		p.File = files[p.Index]
		at.frames++
		if head {
			p.Head, p.Tail, p.Hit = p.Tail, nil, false
			at.inFile = true
			return p, at, nil
		}
		at.files, at.inFile = at.files+1, false
		return p, at, nil
	}
	return kind[dpp.UnitPiece]{serves: serves, drainSurfaces: true, accept: accept, decode: decode}
}

// RemoteUnitSession is the client half of one file-unit stream: the one
// remote stream client (stream) over a unit stream's frames. NextPiece is
// single-consumer; Close may race it from another goroutine, exactly as
// with RemoteSession. A drain frame ends the stream with ErrDrained once the
// file it arrived in is closed: re-homing a shard's unconsumed files is the
// fleet multiplexer's job, so nothing already served is ever refetched.
type RemoteUnitSession struct {
	stream[dpp.UnitPiece]
	carries []int
}

// Carries are the rows the server's plan carries into each served file, in
// order, as its ok reply named them.
func (rus *RemoteUnitSession) Carries() []int { return rus.carries }

// NextPiece returns the stream's next piece under the stream contract
// (see stream.next) — the same contract as a local UnitSession.NextPiece.
func (rus *RemoteUnitSession) NextPiece(ctx context.Context) (dpp.UnitPiece, error) {
	return rus.next(ctx)
}
