// Command recd-datagen synthesizes a session-centric DLRM training
// partition and writes it as DWRF files to a local directory, optionally
// clustered by session (O2). The output can be inspected with
// recd-inspect.
//
// The table's shape is fixed: 9 user sequence features, 12 element-wise
// user features, 4 item features and 8 dense ones, sequences 32 long on
// average, 16.5 samples per session, in 4096-row files of 128-row
// stripes, all drawn from seed 42. Only its size and clustering vary.
//
// Usage:
//
//	recd-datagen -out /tmp/recd-table -sessions 500 -cluster
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
)

const (
	meanS       = 16.5 // mean samples per session (the paper's S)
	rowsPerFile = 4096
	stripeRows  = 128
	seed        = 42
)

func main() {
	var (
		out      = flag.String("out", "recd-table", "output directory")
		sessions = flag.Int("sessions", 500, "number of user sessions")
		cluster  = flag.Bool("cluster", false, "cluster by session ID (O2)")
	)
	flag.Parse()

	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 9, UserElem: 12, Item: 4, Dense: 8, SeqLen: 32, Seed: seed,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions:              *sessions,
		MeanSamplesPerSession: meanS,
		Seed:                  seed,
	})
	samples := gen.GeneratePartition()
	if *cluster {
		samples = etl.ClusterBySession(samples)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	var total dwrf.PartitionStats
	part := 0
	for start := 0; start < len(samples); start += rowsPerFile {
		end := min(start+rowsPerFile, len(samples))
		w, err := dwrf.NewFileWriter(schema, dwrf.WriterOptions{StripeRows: stripeRows})
		if err != nil {
			fatal(err)
		}
		if err := w.WriteRows(samples[start:end]); err != nil {
			fatal(err)
		}
		data, stats, err := w.Finish()
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, fmt.Sprintf("part-%05d.dwrf", part))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		total.Add(stats)
		part++
	}

	fmt.Printf("wrote %d files, %d rows (%d sessions, measured S=%.2f)\n",
		total.Files, total.Rows, *sessions, datagen.MeasuredS(samples))
	fmt.Printf("raw %.1f MiB, compressed %.1f MiB, ratio %.2fx (clustered=%v)\n",
		float64(total.RawBytes)/(1<<20), float64(total.CompressedBytes)/(1<<20),
		total.CompressionRatio(), *cluster)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "recd-datagen:", err)
	os.Exit(1)
}
