// Package dwrf implements a columnar, stripe-based training-data file
// format modelled on Meta's DWRF (an ORC derivative, paper §2.1). Files
// are composed of stripes, each holding a small run of rows; within a
// stripe the labels and every flattened feature column are encoded into
// their own streams. No general-purpose compressor is run over any of
// them (production DWRF uses zstd; docs/ARCHITECTURE.md lists the
// substitutions): every stream is stated by its own grammar, stored as
// written and decoded from the bytes it was fetched into — a label byte a
// row, little-endian float32s, and the sparse row grammar below, which
// states what a compressor would find in a sparse stream. The row keys —
// session, user and request IDs and timestamp — are what a batch does not
// carry: they are one section per file, after the last stripe, which a
// stripe read never fetches and only a row read (ReadRowKeys) does.
//
// The format exists to reproduce the paper's storage behaviour: when the
// ETL clusters a table by session ID (O2), each stripe holds many rows of
// the same session, whose user features repeat the row before, or shift
// it — a sequence feature is a sliding window (§7) — the effect behind the
// paper's 3.71×/2.06× table compression gains and the Table 3 read-byte
// savings. The encoder states such a row by reference: a sparse row is a
// literal list, a repeat of an earlier row of its stripe, a shift of the
// previous row (its first k IDs dropped, t literal IDs appended), or a
// back-reference to any earlier row with a drop and a tail; a reader
// copies what a row refers to out of the rows it has already decoded. An
// ID costs the bytes its stream needs: each sparse stream records its
// least ID as a base and a width w, and every literal ID is its offset
// over the base in w little-endian bytes (ORC's fixed-width integer runs),
// where a varint would spend a continuation bit a byte. That code
// (tensor.WidthCodec) is the module's one integer code: the row-key
// section's request IDs are written in it too, as is every integer block
// of the wire.
package dwrf

import "fmt"

// Every DWRF file starts with magic and ends with trailerMagic, which names
// its layout: every stream stored as written, one length a stream in the
// stripe header. A file of a retired layout ends with another trailer —
// magic itself for the layout whose sparse IDs were zigzag varints, DWR2
// for the one whose sparse streams were flate-compressed and knew no shift
// or back-reference, DWR3 for the one whose label and dense streams and
// row-key section were flate-compressed — and Open refuses it by name,
// where its streams would otherwise parse in the current grammar and
// decode wrong.
const (
	magic        = "DWRF"
	trailerMagic = "DWR4"
)

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

// ColumnStats records raw and stored stream bytes for one flattened column
// across all stripes of a file; column 0, "_meta", is the row metadata: the
// label streams and the file's row-key section. Raw bytes are the column's
// plain encoding, with every sparse row counted at its full length, so
// clustering leaves them unchanged. For a sparse column the plain encoding
// is a varint length and zigzag varint IDs a row, not the referenced rows
// and fixed-width IDs written, so a ratio of raw to compressed (stored)
// bytes counts what references and widths save. The label, dense and
// row-key bytes are stored as written, so their raw and stored bytes are
// the same.
type ColumnStats struct {
	Name            string
	RawBytes        int64
	CompressedBytes int64
}

// FileStats summarizes a written file. RawBytes is the total plain size of
// all column streams (see ColumnStats); CompressedBytes is the final file
// size including stripe headers and footer.
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
