// Package experiments regenerates every quantitative artifact of the
// paper: the Table 1 comparison, the scaling claims of Theorems 1.2 and
// 1.3, the Ω(n) lower bound of Theorem 1.4, the O(log N) message-size
// bound, and two ablations of the paper's design choices. Each experiment
// is indexed in DESIGN.md §4 and its measured output is recorded in
// EXPERIMENTS.md. The same entry points back cmd/benchtables.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"renaming/internal/plot"
)

// Table is one experiment's formatted output. Charts carries the sweep's
// figure renderings (written as SVG by cmd/benchtables -svgdir).
// Elapsed and SweepSeed are provenance for the run that produced the
// table (printed by cmd/benchtables, never rendered into the table text,
// so table output stays deterministic).
type Table struct {
	ID     string
	Title  string
	Notes  []string
	Header []string
	Rows   [][]string
	Charts []plot.Chart

	Elapsed   time.Duration
	SweepSeed int64
}

// NewTable creates a table with the given id, title, and column header.
func NewTable(id, title string, header ...string) *Table {
	return &Table{ID: id, Title: title, Header: header}
}

// AddRow appends one formatted row; cell count must match the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("experiments: row has %d cells, header has %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// fmtCount renders large counts with thousands separators for the tables.
func fmtCount(v int64) string {
	s := fmt.Sprintf("%d", v)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	return strings.Join(parts, ",")
}

func fmtBool(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func fmtRatio(r float64) string { return fmt.Sprintf("%.2f", r) }

// Markdown renders the table as GitHub-flavoured Markdown, for embedding
// into EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", note)
	}
	return b.String()
}
