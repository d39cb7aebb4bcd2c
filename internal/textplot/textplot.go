// Package textplot renders small ASCII charts and tables used to present the
// reproduced figures from the Krak paper in a terminal: log-log scatter/line
// charts (Figures 3 and 5), bar charts (Figure 2), and cell-grid maps
// (Figure 1).
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named sequence of (x, y) points.
type Series struct {
	Name   string
	Marker byte
	Xs, Ys []float64
}

// Chart is a scatter/line chart with optional log axes, drawn on a plot
// area of chartWidth x chartHeight characters.
type Chart struct {
	Title      string
	XLabel     string
	YLabel     string
	LogX, LogY bool
	serieses   []Series
}

// The plot area's size in characters.
const (
	chartWidth  = 64
	chartHeight = 20
)

// AddSeries appends a series; markers default to letters a, b, c...
func (c *Chart) AddSeries(s Series) {
	if s.Marker == 0 {
		s.Marker = "xo*+#@%&"[len(c.serieses)%8]
	}
	c.serieses = append(c.serieses, s)
}

func (c *Chart) transform(x, y float64) (fx, fy float64, ok bool) {
	if c.LogX {
		if x <= 0 {
			return 0, 0, false
		}
		x = math.Log10(x)
	}
	if c.LogY {
		if y <= 0 {
			return 0, 0, false
		}
		y = math.Log10(y)
	}
	return x, y, true
}

// Render draws the chart into a string. Points outside a degenerate range
// collapse to the center. Rendering never fails; an empty chart yields a
// frame with no markers.
func (c *Chart) Render() string {
	w, h := chartWidth, chartHeight
	// Determine the data range in (possibly log-transformed) space.
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.serieses {
		for i := range s.Xs {
			fx, fy, ok := c.transform(s.Xs[i], s.Ys[i])
			if !ok {
				continue
			}
			minX = math.Min(minX, fx)
			maxX = math.Max(maxX, fx)
			minY = math.Min(minY, fy)
			maxY = math.Max(maxY, fy)
		}
	}
	if minX > maxX { // no drawable points
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range c.serieses {
		for i := range s.Xs {
			fx, fy, ok := c.transform(s.Xs[i], s.Ys[i])
			if !ok {
				continue
			}
			px := int(math.Round((fx - minX) / (maxX - minX) * float64(w-1)))
			py := int(math.Round((fy - minY) / (maxY - minY) * float64(h-1)))
			row := h - 1 - py
			if row >= 0 && row < h && px >= 0 && px < w {
				grid[row][px] = s.Marker
			}
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yLo, yHi := minY, maxY
	if c.LogY {
		yLo, yHi = math.Pow(10, minY), math.Pow(10, maxY)
	}
	xLo, xHi := minX, maxX
	if c.LogX {
		xLo, xHi = math.Pow(10, minX), math.Pow(10, maxX)
	}
	fmt.Fprintf(&b, "%11.3g +%s+\n", yHi, strings.Repeat("-", w))
	for i, row := range grid {
		label := strings.Repeat(" ", 11)
		if i == h/2 && c.YLabel != "" {
			label = fmt.Sprintf("%11s", trunc(c.YLabel, 11))
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%11.3g +%s+\n", yLo, strings.Repeat("-", w))
	fmt.Fprintf(&b, "%11s  %-10.3g%s%10.3g\n", "", xLo, centerPad(c.XLabel, w-20), xHi)
	for _, s := range c.serieses {
		fmt.Fprintf(&b, "%13c = %s\n", s.Marker, s.Name)
	}
	return b.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func centerPad(s string, w int) string {
	if w < len(s) {
		return s
	}
	left := (w - len(s)) / 2
	right := w - len(s) - left
	return strings.Repeat(" ", left) + s + strings.Repeat(" ", right)
}

// Bars renders a horizontal bar chart: one row per label, bar lengths scaled
// to the maximum value. Values must be non-negative.
func Bars(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	var maxV float64
	for _, v := range values {
		if v > maxV {
			maxV = v
		}
	}
	var maxLabel int
	for _, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for i, l := range labels {
		v := 0.0
		if i < len(values) {
			v = values[i]
		}
		n := 0
		if maxV > 0 {
			n = int(math.Round(v / maxV * float64(width)))
		}
		fmt.Fprintf(&b, "%-*s |%s %.4g\n", maxLabel, l, strings.Repeat("#", n), v)
	}
	return b.String()
}

// GridMap renders a W×H grid of small integer values (e.g. partition or
// material ids) as characters, for Figure 1-style visualizations. Values are
// mapped onto a 62-character alphabet; out-of-range values render as '?'.
// Rows are rendered top-to-bottom as y descending, matching the mesh's
// row-major layout with row 0 at the bottom.
func GridMap(title string, w, h int, value func(x, y int) int) string {
	const alphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	for y := h - 1; y >= 0; y-- {
		for x := 0; x < w; x++ {
			v := value(x, y)
			if v >= 0 && v < len(alphabet) {
				b.WriteByte(alphabet[v])
			} else {
				b.WriteByte('?')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table renders rows of cells as an aligned text table with a header rule.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, hcell := range header {
		widths[i] = len(hcell)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	total := 0
	for _, wd := range widths {
		total += wd
	}
	total += 2 * (len(widths) - 1)
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
