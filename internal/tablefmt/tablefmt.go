// Package tablefmt renders experiment results as aligned ASCII tables and
// simple horizontal bar charts, so that the reproduction's figures and
// tables can be read directly from a terminal.
package tablefmt

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table accumulates rows of string cells and renders them with aligned
// columns. The first added row is treated as the header.
type Table struct {
	header []string
	rows   [][]string
}

// New creates a table with the given header.
func New(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row. Rows shorter than the header are padded; longer
// rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	writeRow := func(r []string) {
		parts := make([]string, cols)
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i == 0 {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = fmt.Sprintf("%*s", widths[i], cell)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.header)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// BarChart renders labeled values as horizontal ASCII bars scaled to the
// maximum value, mimicking the paper's bar figures.
type BarChart struct {
	Title  string
	Unit   string
	Width  int // bar width in characters; default 50
	labels []string
	values []float64
}

// NewBarChart creates a chart with the given title and value unit label.
func NewBarChart(title, unit string) *BarChart {
	return &BarChart{Title: title, Unit: unit, Width: 50}
}

// Add appends one labeled bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// Render writes the chart to w.
func (c *BarChart) Render(w io.Writer) {
	if c.Title != "" {
		fmt.Fprintln(w, c.Title)
	}
	maxVal := 0.0
	labelWidth := 0
	for i, v := range c.values {
		if v > maxVal {
			maxVal = v
		}
		if len(c.labels[i]) > labelWidth {
			labelWidth = len(c.labels[i])
		}
	}
	width := c.Width
	if width <= 0 {
		width = 50
	}
	for i, v := range c.values {
		bar := 0
		if maxVal > 0 && !math.IsNaN(v) {
			bar = int(math.Round(float64(width) * v / maxVal))
		}
		fmt.Fprintf(w, "  %-*s  %s %.1f%s\n", labelWidth, c.labels[i],
			strings.Repeat("#", bar), v, c.Unit)
	}
}

// String renders the chart to a string.
func (c *BarChart) String() string {
	var b strings.Builder
	c.Render(&b)
	return b.String()
}
