package experiments

import (
	"fmt"

	"repro/internal/core"
)

func init() {
	register(Runner{ID: "table3", Brief: "reader ingest/egress bytes for a fixed sample count", Run: runTable3})
	register(Runner{ID: "fig10", Brief: "reader CPU time breakdown per RM", Run: runFig10})
}

// runTable3 reproduces Table 3: reader read (ingest) and send (egress)
// bytes for a fixed number of samples — baseline, with clustering, and
// with clustering + IKJTs (paper: 538/837 GB → 179/837 GB → 179/713 GB).
func runTable3(scale Scale) (*Result, error) {
	rm := scaledRM(core.RM1(), scale)

	// Table 3 reads nothing but reader byte accounting, so the runs are
	// stats-only: every batch is discarded as soon as it is measured.
	baseline, err := core.Run(core.PipelineConfig{RM: rm, Readers: 1, StatsOnly: true})
	if err != nil {
		return nil, err
	}
	clustered, err := core.Run(core.PipelineConfig{RM: rm, Clustered: true, Readers: 1, StatsOnly: true})
	if err != nil {
		return nil, err
	}
	ikjt, err := core.Run(core.PipelineConfig{
		RM: rm, Clustered: true, Dedup: true, UseJaggedIndexSelect: true,
		Batch: rm.BaselineBatch, Readers: 1, // fixed batch: isolate the byte effect
		StatsOnly: true,
	})
	if err != nil {
		return nil, err
	}

	mb := func(n int64) float64 { return float64(n) / (1 << 20) }
	row := func(label string, r *core.Result) Row {
		return Row{Label: label, Values: []Cell{
			{Name: "read", Value: mb(r.Reader.ReadBytes), Unit: "M"},
			{Name: "send", Value: mb(r.Reader.SentBytes), Unit: "M"},
		}}
	}
	res := &Result{
		ID:    "table3",
		Title: "reader ingest & egress bytes, fixed sample count",
		Rows: []Row{
			row("baseline", baseline),
			row("with cluster (O2)", clustered),
			row("with IKJT (O3/O4)", ikjt),
		},
		Notes: []string{
			"paper: 538/837 GB -> 179/837 GB -> 179/713 GB",
			fmt.Sprintf("samples per run: %d", baseline.Samples),
		},
	}
	return res, nil
}

// runFig10 reproduces Figure 10: per-RM reader CPU time spent on fill,
// convert, and process, normalized to the baseline total (paper: fill
// −50/33/46%, convert +21/37/11%, process −13/−11/+3%), beside each
// stage's work counter normalized to the baseline's: bytes fetched (the
// fetch cost model's input), values converted and transform operations.
func runFig10(scale Scale) (*Result, error) {
	res := &Result{
		ID:    "fig10",
		Title: "reader CPU breakdown (times normalized to baseline total, counters to baseline)",
		Notes: []string{
			"paper: fill -50/-33/-46%, convert +21/+37/+11%, process -13/-11/+3%",
		},
	}
	for _, rm := range core.AllRMs() {
		rm = scaledRM(rm, scale)
		// Fig 10 reads only the per-stage reader CPU times: stats-only.
		base, err := core.Run(core.PipelineConfig{RM: rm, Batch: rm.BaselineBatch, Readers: 1, StatsOnly: true})
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", rm.Name, err)
		}
		recd, err := core.Run(core.PipelineConfig{
			RM: rm, Clustered: true, Dedup: true,
			UseJaggedIndexSelect: true, Batch: rm.BaselineBatch, Readers: 1,
			StatsOnly: true,
		})
		if err != nil {
			return nil, fmt.Errorf("%s recd: %w", rm.Name, err)
		}
		b := base.Reader
		baseTotal := b.TotalTime().Seconds()
		row := func(label string, r *core.Result) Row {
			return Row{Label: label, Values: []Cell{
				{Name: "fill", Value: r.Reader.FillTime.Seconds() / baseTotal},
				{Name: "convert", Value: r.Reader.ConvertTime.Seconds() / baseTotal},
				{Name: "process", Value: r.Reader.ProcessTime.Seconds() / baseTotal},
				{Name: "total", Value: r.Reader.TotalTime().Seconds() / baseTotal},
				{Name: "read_bytes", Value: float64(r.Reader.ReadBytes) / float64(b.ReadBytes)},
				{Name: "convert_values", Value: float64(r.Reader.ConvertValues) / float64(b.ConvertValues)},
				{Name: "process_ops", Value: float64(r.Reader.ProcessOps) / float64(b.ProcessOps)},
			}}
		}
		res.Rows = append(res.Rows, row(rm.Name+" baseline", base), row(rm.Name+" recd", recd))
	}
	return res, nil
}
