// Package dwrf implements a columnar, stripe-based training-data file
// format modelled on Meta's DWRF (an ORC derivative, paper §2.1). Files
// are composed of stripes, each holding a small run of rows; within a
// stripe every flattened feature column is encoded into its own stream and
// block-compressed (stdlib flate standing in for zstd; docs/ARCHITECTURE.md
// lists the substitutions).
//
// The format exists to reproduce the paper's storage behaviour: when the
// ETL clusters a table by session ID (O2), each stripe holds many rows of
// the same session, so the per-stripe compressor sees adjacent duplicate
// ID lists and the compression ratio rises — the effect behind the paper's
// 3.71×/2.06× table compression gains and the Table 3 read-byte savings.
package dwrf

import "fmt"

// Magic bytes at the start and end of every DWRF file.
const magic = "DWRF"

// Format limits. These guard the decoder against corrupt or adversarial
// inputs rather than constraining real use.
const (
	maxColumns     = 1 << 20
	maxStripeRows  = 1 << 24
	maxStreamBytes = 1 << 31
	// maxDense bounds the footer's dense width, mirroring the unit wire
	// frame's bound (dppnet maxUnitDense).
	maxDense = 1 << 20
)

// DefaultStripeRows is the number of rows per stripe when WriterOptions
// does not override it. Stripes are deliberately small (a "small set of
// rows", §2.1) so that a stripe is a practical read/compression unit.
const DefaultStripeRows = 1024

// WriterOptions configures a FileWriter.
type WriterOptions struct {
	// StripeRows is the maximum number of rows per stripe.
	// 0 means DefaultStripeRows.
	StripeRows int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.StripeRows <= 0 {
		o.StripeRows = DefaultStripeRows
	}
	return o
}

func (o WriterOptions) validate() error {
	if o.StripeRows > maxStripeRows {
		return fmt.Errorf("dwrf: stripe rows %d exceeds limit %d", o.StripeRows, maxStripeRows)
	}
	return nil
}

// ColumnStats records raw (pre-compression) and compressed stream bytes
// for one flattened column across all stripes of a file.
type ColumnStats struct {
	Name            string
	RawBytes        int64
	CompressedBytes int64
}

// FileStats summarizes a written file. RawBytes is the total size of all
// encoded column streams before compression; CompressedBytes is the final
// file size including stripe headers and footer.
type FileStats struct {
	Rows            int
	Stripes         int
	RawBytes        int64
	CompressedBytes int64
	Columns         []ColumnStats
}

// stripeInfo locates one stripe within a file.
type stripeInfo struct {
	offset int64
	length int64
	rows   int
}
