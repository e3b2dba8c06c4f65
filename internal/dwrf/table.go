package dwrf

import (
	"fmt"

	"repro/internal/datagen"
	"repro/internal/lakefs"
)

// TableOptions configures WritePartition.
type TableOptions struct {
	Writer WriterOptions
	// RowsPerFile splits a partition into multiple files; 0 writes a
	// single file. Production tables are many-file; the reader tier
	// distributes file splits across readers.
	RowsPerFile int
}

// PartitionStats aggregates the FileStats of every file in one landed
// partition.
type PartitionStats struct {
	Files           int
	Rows            int
	RawBytes        int64
	CompressedBytes int64
}

// CompressionRatio is raw over compressed across the whole partition.
func (s PartitionStats) CompressionRatio() float64 {
	if s.CompressedBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.CompressedBytes)
}

// Add folds one file's stats into the partition totals.
func (s *PartitionStats) Add(fs FileStats) {
	s.Files++
	s.Rows += fs.Rows
	s.RawBytes += fs.RawBytes
	s.CompressedBytes += fs.CompressedBytes
}

// WritePartition encodes samples into one or more DWRF files, stores them
// in the blob store, and registers them — with their row counts — in the
// catalog under table/hour. File paths follow
// "<table>/hour=<hour>/part-<n>.dwrf".
func WritePartition(store *lakefs.Store, catalog *lakefs.Catalog, table string, hour int64,
	schema *datagen.Schema, samples []datagen.Sample, opts TableOptions) (PartitionStats, error) {

	rowsPerFile := opts.RowsPerFile
	if rowsPerFile <= 0 {
		rowsPerFile = len(samples)
		if rowsPerFile == 0 {
			rowsPerFile = 1
		}
	}

	var stats PartitionStats
	part := 0
	for start := 0; start < len(samples) || part == 0; start += rowsPerFile {
		end := start + rowsPerFile
		if end > len(samples) {
			end = len(samples)
		}
		w, err := NewFileWriter(schema, opts.Writer)
		if err != nil {
			return PartitionStats{}, err
		}
		if err := w.WriteRows(samples[start:end]); err != nil {
			return PartitionStats{}, err
		}
		data, fs, err := w.Finish()
		if err != nil {
			return PartitionStats{}, err
		}
		path := fmt.Sprintf("%s/hour=%d/part-%05d.dwrf", table, hour, part)
		if err := store.Put(path, data); err != nil {
			return PartitionStats{}, err
		}
		catalog.AddFile(table, hour, path, fs.Rows)
		stats.Add(fs)
		part++
		if len(samples) == 0 {
			break
		}
	}
	return stats, nil
}
