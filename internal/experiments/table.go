package experiments

import (
	"fmt"
	"strings"
)

// Result is one experiment's output: a titled table whose rows mirror the
// paper's figure or table series.
type Result struct {
	ID     string
	Figure string
	Title  string
	Header []string
	Rows   [][]string
	// Notes document modeling caveats that affect interpretation.
	Notes []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// String renders the result as a fixed-width text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%s) ==\n%s\n", r.ID, r.Figure, r.Title)

	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = runeLen(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && runeLen(c) > widths[i] {
				widths[i] = runeLen(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-runeLen(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func runeLen(s string) int { return len([]rune(s)) }

// pct formats a ratio as a percentage with one decimal.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// x2 formats a speedup with two decimals.
func x2(x float64) string { return fmt.Sprintf("%.2fx", x) }
