package dppnet

import (
	"context"
	"fmt"

	"repro/internal/dpp"
)

// OpenUnits opens a file-unit session on the remote service
// (dpp.Service.OpenUnits over the wire): each file's batches and then its
// closing record arrive strictly in file-list order instead of one batch
// stream, a file's first batch while the shard is still reading the file.
// This is how the fleet multiplexer (dppshard) consumes a shard; training
// loops consume batch sessions via Open.
//
// The spec must name its files explicitly (Spec.Files): files travel by
// subset index, so the client must own the list the indices name. The
// credit window counts payload frames in flight — batch frames and closing
// records alike — and is sized like a batch session's (spec.Window()), the
// bound a local unit session's output buffer has. Resume works exactly as
// for a batch session, the offset counting the same frames and the chain
// hash verifying the continued stream.
func (c *Client) OpenUnits(ctx context.Context, spec dpp.Spec) (*RemoteUnitSession, error) {
	if len(spec.Files) == 0 {
		return nil, fmt.Errorf("dppnet: file-unit session needs an explicit file list")
	}
	rus := &RemoteUnitSession{}
	if err := rus.start(ctx, c, spec, unitKind(spec.Files, spec.ConsumedFeatures())); err != nil {
		return nil, err
	}
	return rus, nil
}

// unitKind is the file-unit stream over files, whose closing records' tail
// chunks hold the tail features: batch frames and file-unit frames, and a
// drain frame surfaces. Its decode hook reads a batch frame as the batch
// kind's does and gives the batch to the file the cursor stands in; a
// file-unit frame is chain | unit, the unit leading with its own index.
// Closing records must arrive with strictly consecutive subset indices
// continuing from the cursor — a server violating that is protocol-corrupt,
// and failing here keeps the fleet merge from ever seeing a misordered or
// aliased slot.
func unitKind(files, tail []string) kind[dpp.UnitPiece] {
	decode := func(typ byte, payload []byte, at cursor) (dpp.UnitPiece, cursor, error) {
		if at.files >= len(files) {
			return dpp.UnitPiece{}, at, fmt.Errorf("dppnet: frame %#x after the last of %d files", typ, len(files))
		}
		if typ != frameFileUnit {
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
		at.frames, at.files, at.inFile = at.frames+1, at.files+1, false
		return p, at, nil
	}
	return kind[dpp.UnitPiece]{fileUnits: true, drainSurfaces: true, decode: decode}
}

// RemoteUnitSession is the client half of one file-unit stream: the one
// remote stream client (stream) over a unit stream's frames. NextPiece is
// single-consumer; Close may race it from another goroutine, exactly as
// with RemoteSession. A drain frame ends the stream with ErrDrained once the
// file it arrived in is closed: re-homing a shard's unconsumed files is the
// fleet multiplexer's job, so nothing already served is ever refetched.
type RemoteUnitSession struct {
	stream[dpp.UnitPiece]
}

// NextPiece returns the stream's next piece under the stream contract
// (see stream.next) — the same contract as a local UnitSession.NextPiece.
func (rus *RemoteUnitSession) NextPiece(ctx context.Context) (dpp.UnitPiece, error) {
	return rus.next(ctx)
}
