// Package experiments implements one runner per table and figure of the
// paper's evaluation (§3 characterization, §6 evaluation, §7 extensions).
// Each runner returns a structured result with a paper-style textual
// rendering; cmd/recd-bench and the repository-root benchmark harness are
// thin wrappers over these functions. EXPERIMENTS.md records the
// paper-reported values next to what these runners measure.
package experiments

import (
	"fmt"
	"strings"
)

// Row is one printable result row: a label and named columns.
type Row struct {
	Label  string
	Values []Cell
}

// Cell is one named numeric result.
type Cell struct {
	Name  string
	Value float64
	// Unit annotates rendering ("x", "%", "GB", "qps", "").
	Unit string
}

// Result is a rendered experiment outcome.
type Result struct {
	ID    string // "fig7", "table3", ...
	Title string
	Rows  []Row
	Notes []string
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Rows) > 0 {
		// Header from the first row's cell names.
		fmt.Fprintf(&b, "%-28s", "")
		for _, c := range r.Rows[0].Values {
			fmt.Fprintf(&b, "%16s", c.Name)
		}
		b.WriteByte('\n')
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-28s", row.Label)
			for _, c := range row.Values {
				fmt.Fprintf(&b, "%15.2f%-1s", c.Value, c.Unit)
			}
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Brief string
	Run   func(scale Scale) (*Result, error)
}

// Scale sizes an experiment run. Benchmarks use Small for iteration speed;
// the CLI defaults to Full for better statistics.
type Scale int

const (
	// Small shrinks session counts for fast CI runs.
	Small Scale = iota
	// Full uses the RM specs as configured.
	Full
)

// registry in presentation order.
var registry []Runner

func register(r Runner) { registry = append(registry, r) }

// All returns every registered experiment in paper order.
func All() []Runner { return append([]Runner(nil), registry...) }

// ByID finds one experiment.
func ByID(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
