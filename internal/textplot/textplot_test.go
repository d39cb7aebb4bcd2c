package textplot

import (
	"strings"
	"testing"
)

func TestChartRenderBasics(t *testing.T) {
	var c Chart
	c.Title = "test chart"
	c.AddSeries(Series{Name: "linear", Xs: []float64{1, 2, 3}, Ys: []float64{1, 2, 3}})
	out := c.Render()
	if !strings.Contains(out, "test chart") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "linear") {
		t.Fatal("legend missing")
	}
	if !strings.Contains(out, "x") {
		t.Fatal("default marker missing")
	}
}

func TestChartLogAxesSkipNonPositive(t *testing.T) {
	c := Chart{LogX: true, LogY: true}
	c.AddSeries(Series{Name: "s", Marker: '*', Xs: []float64{0, 10, 100}, Ys: []float64{-1, 10, 100}})
	out := c.Render()
	// The x<=0 / y<=0 points must be silently skipped, leaving one valid area.
	if !strings.Contains(out, "*") {
		t.Fatal("valid points not drawn")
	}
}

func TestChartEmpty(t *testing.T) {
	c := Chart{Title: "empty"}
	out := c.Render()
	if !strings.Contains(out, "empty") {
		t.Fatal("empty chart should still render a frame")
	}
}

func TestChartDegenerateRange(t *testing.T) {
	var c Chart
	c.AddSeries(Series{Name: "pt", Marker: 'p', Xs: []float64{5}, Ys: []float64{5}})
	out := c.Render()
	if !strings.Contains(out, "p") {
		t.Fatal("single point not drawn")
	}
}

func TestChartMultipleSeriesMarkers(t *testing.T) {
	var c Chart
	c.AddSeries(Series{Name: "a", Xs: []float64{1}, Ys: []float64{1}})
	c.AddSeries(Series{Name: "b", Xs: []float64{2}, Ys: []float64{2}})
	out := c.Render()
	if !strings.Contains(out, "x = a") || !strings.Contains(out, "o = b") {
		t.Fatalf("default markers wrong:\n%s", out)
	}
}

func TestBars(t *testing.T) {
	out := Bars("phase times", []string{"p1", "p2"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "phase times") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d", len(lines))
	}
	// p2 has twice the hashes of p1.
	c1 := strings.Count(lines[1], "#")
	c2 := strings.Count(lines[2], "#")
	if c2 != 10 || c1 != 5 {
		t.Fatalf("bar lengths: p1=%d p2=%d, want 5 and 10", c1, c2)
	}
}

func TestBarsZeroValues(t *testing.T) {
	out := Bars("", []string{"a"}, []float64{0}, 10)
	if strings.Contains(out, "#") {
		t.Fatal("zero value should draw no bar")
	}
}

func TestGridMap(t *testing.T) {
	out := GridMap("map", 3, 2, func(x, y int) int { return x + y*3 })
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "map" {
		t.Fatal("title missing")
	}
	// Row y=1 rendered first (top): values 3,4,5; then y=0: 0,1,2.
	if lines[1] != "345" || lines[2] != "012" {
		t.Fatalf("grid rows = %q, %q", lines[1], lines[2])
	}
	// Out-of-range value.
	out = GridMap("", 1, 1, func(x, y int) int { return 99 })
	if !strings.Contains(out, "?") {
		t.Fatal("out-of-range value should render '?'")
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{{"alpha", "1"}, {"b", "22"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatal("header missing")
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatal("rule missing")
	}
	// Columns align: "alpha" and "b" rows both have value column at the same offset.
	idx1 := strings.Index(lines[2], "1")
	idx2 := strings.Index(lines[3], "22")
	if idx1 != idx2 {
		t.Fatalf("columns misaligned: %d vs %d", idx1, idx2)
	}
}
