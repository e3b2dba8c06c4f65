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

// fill is open and stripes in one call, for the callers that want a file
// and not its stripes: it returns the opened file once every stripe has
// been read and yielded. A nil yield drops them — the read still fetches,
// and counts, every byte the spec's projection covers.
func (r *Reader) fill(ctx context.Context, path string, yield func(*dwrf.Chunk) error) (*source, error) {
	src, err := r.open(ctx, path)
	if err != nil {
		return nil, err
	}
	if yield == nil {
		yield = func(*dwrf.Chunk) error { return nil }
	}
	if err := src.stripes(ctx, yield); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return src, nil
}

// FillFile runs only the fill stage over one file — collecting the stripe
// stream, the one place a whole file's rows are put back together — and
// returns the decoded rows as views over that column chunk
// (dwrf.Chunk.Samples): full-width, with empty lists for features the spec
// does not consume — and the file schema.
func (r *Reader) FillFile(ctx context.Context, file string) ([]datagen.Sample, []string, int, error) {
	var stripes []*dwrf.Chunk
	src, err := r.fill(ctx, file, func(stripe *dwrf.Chunk) error {
		stripes = append(stripes, stripe)
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	chunk := src.noRows()
	if len(stripes) > 0 {
		if chunk, err = dwrf.Concat(stripes...); err != nil {
			return nil, nil, 0, fmt.Errorf("reader: %s: %w", file, err)
		}
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
