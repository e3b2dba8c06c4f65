package reader

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datagen"
	"repro/internal/dwrf"
)

// FillFile and ProduceBatch are the row-shaped faces of fill and of
// convert+process. No product path calls them: their only callers are the
// frozen benchmark walk (benchmarks/ladder, which times the layers one by
// one) and the tests that keep a hand-rolled, row-based carry loop as an
// oracle independent of the cutter (scan_test.go's composeScan).

// FillFile runs only the fill stage over one file — collecting the stripe
// stream, the one place a whole file's rows are put back together — and
// returns the decoded rows whole, as views over that column chunk
// (dwrf.Chunk.Samples): full-width, with empty lists for features the spec
// does not consume, and with their row keys, which it reads from the
// file's row-key section (one fetch a batch fill never makes, charged to r
// like the others) — and the file schema.
func (r *Reader) FillFile(ctx context.Context, file string) ([]datagen.Sample, []string, int, error) {
	chunk, src, err := r.fillRows(ctx, file)
	if err != nil {
		return nil, nil, 0, err
	}
	rows := chunk.Samples()
	start := time.Now()
	err = src.file.ReadRowKeys(rows)
	r.stats.FillTime += time.Since(start)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("reader: %s: %w", file, err)
	}
	return rows, chunk.Keys(), chunk.DenseWidth(), nil
}

// fillRows is FillFile without the row keys: the stripes a batch fill of
// the file reads, concatenated.
func (r *Reader) fillRows(ctx context.Context, file string) (*dwrf.Chunk, *source, error) {
	src, err := r.open(ctx, file)
	if err != nil {
		return nil, nil, err
	}
	stripes := make([]*dwrf.Chunk, src.file.NumStripes())
	for i := range stripes {
		if stripes[i], err = r.readStripe(ctx, src, i); err != nil {
			return nil, nil, err
		}
	}
	if len(stripes) == 0 {
		return src.noRows(), src, nil
	}
	chunk, err := dwrf.Concat(stripes...)
	if err != nil {
		return nil, nil, fmt.Errorf("reader: %s: %w", file, err)
	}
	return chunk, src, nil
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
