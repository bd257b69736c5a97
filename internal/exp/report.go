package exp

import (
	"fmt"
	"strings"
)

// Report is the uniform output of every experiment driver: a table whose
// rows mirror what the paper's figure or table reports, plus free-text
// notes about the comparison.
type Report struct {
	// ID is the experiment identifier ("fig7", "table1", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Notes carries summary observations (factors, medians, crossovers).
	Notes []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// trialRow is what one trial of a one-row-per-trial driver contributes to
// its report: the row, plus the notes that trial alone can write (link
// ledgers, fault transitions).
type trialRow struct {
	row   []string
	notes []string
}

// addRows appends the trials' rows and notes in trial order.
func (r *Report) addRows(rows []trialRow) {
	for _, tr := range rows {
		r.Rows = append(r.Rows, tr.row)
		r.Notes = append(r.Notes, tr.notes...)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// clampScale normalizes the user-supplied scale into (0, 1].
func clampScale(scale float64) float64 {
	if scale <= 0 {
		return 0.1
	}
	if scale > 1 {
		return 1
	}
	return scale
}

// scaledDur returns full*scale floored at min seconds.
func scaledDur(full, min, scale float64) float64 {
	d := full * scale
	if d < min {
		d = min
	}
	return d
}
