package dppnet

import (
	"context"
	"fmt"

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
// credit window counts unit frames in flight, sized like a batch
// session's (spec.Window()), so a shard's scan workers stay busy up to
// the same backpressure bound a local unit session's merge window allows.
// Resume works exactly as for a batch session, the chain hash verifying
// the continued stream.
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

// unitKind is the file-unit stream over files, whose units' tail chunks
// hold the tail features: unit frames, and a drain frame surfaces. Its
// decode hook reads chain | unit, the unit leading with its own index.
// Units must arrive with strictly consecutive subset indices starting at
// the resume offset — a server violating that is protocol-corrupt, and
// failing here keeps the fleet merge from ever seeing a misordered or
// aliased slot.
func unitKind(files, tail []string) kind[*dpp.FileUnit] {
	decode := func(payload []byte, want int64, chain uint64) (*dpp.FileUnit, uint64, error) {
		fchain, body, err := decodeUnitFrame(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("dppnet: corrupt file-unit frame: %w", err)
		}
		u, err := decodeFileUnit(body, tail)
		if err != nil {
			return nil, 0, fmt.Errorf("dppnet: corrupt file-unit frame: %w", err)
		}
		if int64(u.Index) != want || u.Index >= len(files) {
			return nil, 0, fmt.Errorf("dppnet: file unit %d out of order (want %d of %d)", u.Index, want, len(files))
		}
		if chain, err = chainUnit(chain, body); err != nil {
			return nil, 0, err
		}
		if chain != fchain {
			return nil, 0, fmt.Errorf("dppnet: stream hash mismatch at file unit %d", u.Index)
		}
		u.File = files[u.Index]
		return u, chain, nil
	}
	return kind[*dpp.FileUnit]{frame: frameFileUnit, fileUnits: true, drainSurfaces: true, decode: decode}
}

// RemoteUnitSession is the client half of one file-unit stream: the one
// remote stream client (stream) over file-unit frames. NextUnit is
// single-consumer; Close may race it from another goroutine, exactly as
// with RemoteSession. A drain frame ends the stream with ErrDrained:
// re-homing a shard's unconsumed files is the fleet multiplexer's job, so
// nothing already served is ever refetched.
type RemoteUnitSession struct {
	stream[*dpp.FileUnit]
}

// NextUnit returns the stream's next file unit under the stream contract
// (see stream.next) — the same contract as a local UnitSession.NextUnit.
func (rus *RemoteUnitSession) NextUnit(ctx context.Context) (*dpp.FileUnit, error) {
	return rus.next(ctx)
}
