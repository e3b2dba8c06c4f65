package reader

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/dwrf"
)

// FillFile and ProduceBatch are the row-shaped faces of fill and of
// convert+process. No product path calls them: their only callers are the
// frozen benchmark walk (benchmarks/ladder, which times the layers one by
// one) and the tests that keep a hand-rolled, row-based carry loop as an
// oracle independent of the cutter (scan_test.go's composeScan).

// FillFile runs only the fill stage over one file and returns the decoded
// rows — views over the file's column chunk (dwrf.Chunk.Samples):
// full-width, with empty lists for features the spec does not consume —
// and the file schema.
func (r *Reader) FillFile(ctx context.Context, file string) ([]datagen.Sample, []string, int, error) {
	chunk, err := r.fill(ctx, file, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	return chunk.Samples(), chunk.Keys(), chunk.DenseWidth(), nil
}

// ProduceBatch gathers rows into a column chunk of the consumed features
// and runs convert and process over it, charging the reader's Stats
// exactly as a Run-emitted batch would.
func (r *Reader) ProduceBatch(rows []datagen.Sample, keys []string, dense int) (*Batch, error) {
	cols, err := resolveColumns(r.consumed, keys)
	if err != nil {
		return nil, err
	}
	chunk, err := dwrf.ChunkFromSamples(rows, keys, dense, cols)
	if err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}
	return r.produceBatch(chunk)
}
