// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a Table — rows of named columns —
// that cmd/smol-bench prints.
//
// Throughput numbers come from the calibrated hardware model and the
// discrete-event pipeline simulator (paper-scale, deterministic); accuracy
// numbers come from really training the micro-model zoo on the synthetic
// datasets (laptop-scale). Scale Quick keeps everything fast enough for
// the test suite; Full is what cmd/smol-bench -full runs.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects experiment fidelity.
type Scale int

// Experiment scales.
const (
	// Quick shrinks datasets and epochs so the whole suite runs in minutes.
	Quick Scale = iota
	// Full uses the complete synthetic datasets and training budgets.
	Full
)

// Table is a generic result table.
type Table struct {
	ID      string // experiment id, e.g. "table3" or "figure4"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries paper-vs-measured commentary.
	Notes []string
}

// Add appends a row, formatting each cell.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Registry maps experiment IDs to their runners, in presentation order.
type Runner func(Scale) (*Table, error)

type entry struct {
	id  string
	run Runner
}

var registry []entry

func register(id string, run Runner) {
	registry = append(registry, entry{id: id, run: run})
}

// IDs lists registered experiment IDs in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes the named experiment.
func Run(id string, s Scale) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(s)
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}

// RunAll executes every experiment in order.
func RunAll(s Scale) ([]*Table, error) {
	out := make([]*Table, 0, len(registry))
	for _, e := range registry {
		t, err := e.run(s)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.id, err)
		}
		out = append(out, t)
	}
	return out, nil
}
