// Package stats provides the small statistical and presentation helpers the
// experiment harness uses: histograms (Figure 4's gradient-value
// distribution), ASCII plots, and plain-text table rendering for
// regenerating the paper's tables.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Min, Max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	under    int
	over     int
}

// NewHistogram creates a histogram with bins over [min, max].
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins < 1 {
		bins = 1
	}
	if max < min {
		min, max = max, min
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	switch {
	case v < h.Min:
		h.under++
	case v > h.Max:
		h.over++
	default:
		width := (h.Max - h.Min) / float64(len(h.Counts))
		i := len(h.Counts) - 1
		if width > 0 {
			i = int((v - h.Min) / width)
			if i >= len(h.Counts) {
				i = len(h.Counts) - 1
			}
		}
		h.Counts[i]++
	}
}

// AddAll records every value.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	width := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*width
}

// MaxCount returns the largest bin count.
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Render draws the histogram as ASCII art, one row per bin, scaled to
// width columns.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	var b strings.Builder
	max := h.MaxCount()
	if max == 0 {
		max = 1
	}
	for i, c := range h.Counts {
		bar := strings.Repeat("#", c*width/max)
		fmt.Fprintf(&b, "%+10.4f |%-*s| %d\n", h.BinCenter(i), width, bar, c)
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "(out of range: %d below, %d above)\n", h.under, h.over)
	}
	return b.String()
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	a := math.Abs(v)
	switch {
	case v == math.Trunc(v) && a < 1e9: //lint:allow float-equality exact is-integer test
		return fmt.Sprintf("%.0f", v)
	case a >= 1000 || (a < 0.001 && a > 0):
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named line of (x, y) points for Plot.
type Series struct {
	Name   string
	X, Y   []float64
	Marker byte // rendered glyph; 0 defaults per-series
}

// Plot renders line series as ASCII art in a width×height grid: x left to
// right, y bottom to top, one marker glyph per series. It is used for the
// convergence-curve figures.
func Plot(series []Series, width, height int) string {
	if width < 10 {
		width = 10
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		return "(no data)\n"
	}
	if maxX == minX { //lint:allow float-equality degenerate plot range guard
		maxX = minX + 1
	}
	if maxY == minY { //lint:allow float-equality degenerate plot range guard
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	for si, s := range series {
		m := s.Marker
		if m == 0 {
			m = markers[si%len(markers)]
		}
		for i := range s.X {
			c := int((s.X[i] - minX) / (maxX - minX) * float64(width-1))
			r := height - 1 - int((s.Y[i]-minY)/(maxY-minY)*float64(height-1))
			grid[r][c] = m
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%10.4g ┤%s\n", maxY, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&b, "%10s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%10.4g ┤%s\n", minY, string(grid[height-1]))
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", width/2, minX, width-width/2, maxX)
	legends := make([]string, 0, len(series))
	for si, s := range series {
		m := s.Marker
		if m == 0 {
			m = markers[si%len(markers)]
		}
		legends = append(legends, fmt.Sprintf("%c %s", m, s.Name))
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", strings.Join(legends, "   "))
	return b.String()
}
