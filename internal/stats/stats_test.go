package stats

import (
	"strings"
	"testing"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.AddAll([]float64{0, 1.9, 2, 5, 9.9, 10})
	// bins: [0,2) [2,4) [4,6) [6,8) [8,10]
	want := []int{2, 1, 1, 0, 2}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], w)
		}
	}
	if h.under != 0 || h.over != 0 {
		t.Errorf("under=%d over=%d, want 0 and 0 (10 is the closed upper edge)", h.under, h.over)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := NewHistogram(-1, 1, 4)
	h.AddAll([]float64{-2, 2, 0})
	if h.under != 1 || h.over != 1 {
		t.Errorf("under=%d over=%d", h.under, h.over)
	}
	out := h.Render(20)
	if !strings.Contains(out, "out of range") {
		t.Error("render should mention out-of-range values")
	}
}

func TestHistogramSwappedBounds(t *testing.T) {
	h := NewHistogram(5, -5, 2)
	if h.Min != -5 || h.Max != 5 {
		t.Error("bounds not swapped")
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); got != 1 {
		t.Errorf("BinCenter(0) = %v", got)
	}
	if got := h.BinCenter(4); got != 9 {
		t.Errorf("BinCenter(4) = %v", got)
	}
}

func TestHistogramRenderScales(t *testing.T) {
	h := NewHistogram(0, 2, 2)
	for i := 0; i < 100; i++ {
		h.Add(0.5)
	}
	h.Add(1.5)
	out := h.Render(10)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Error("dominant bin should have full bar")
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("model", "seconds")
	tb.AddRow("LR", 243.0)
	tb.AddRow("SVM", 12.5)
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "model") {
		t.Error("missing header")
	}
	if !strings.Contains(lines[1], "-----") {
		t.Error("missing separator")
	}
	if !strings.Contains(lines[2], "243") {
		t.Error("integer-valued float should render without decimals")
	}
	if !strings.Contains(lines[3], "12.5") {
		t.Error("missing value")
	}
}

func TestTableFloatFormats(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(0.00001)
	tb.AddRow(123456.789)
	tb.AddRow(0.25)
	out := tb.String()
	if !strings.Contains(out, "e-") {
		t.Error("tiny values should use scientific notation")
	}
	if !strings.Contains(out, "0.2500") {
		t.Error("mid-range values should use fixed notation")
	}
}

func TestPlotBasics(t *testing.T) {
	out := Plot([]Series{
		{Name: "down", X: []float64{0, 1, 2, 3}, Y: []float64{3, 2, 1, 0}},
		{Name: "up", X: []float64{0, 1, 2, 3}, Y: []float64{0, 1, 2, 3}},
	}, 20, 6)
	if !strings.Contains(out, "* down") || !strings.Contains(out, "o up") {
		t.Errorf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6+2 {
		t.Fatalf("%d lines:\n%s", len(lines), out)
	}
	// The descending series starts top-left; ascending ends top-right.
	if !strings.Contains(lines[0], "*") || !strings.HasSuffix(strings.TrimRight(lines[0], " "), "o") {
		t.Errorf("top row wrong: %q", lines[0])
	}
}

func TestPlotDegenerate(t *testing.T) {
	if out := Plot(nil, 20, 5); !strings.Contains(out, "no data") {
		t.Errorf("empty plot: %q", out)
	}
	// Constant series must not divide by zero.
	out := Plot([]Series{{Name: "flat", X: []float64{0, 1}, Y: []float64{2, 2}}}, 5, 2)
	if !strings.Contains(out, "*") {
		t.Errorf("flat plot missing marker:\n%s", out)
	}
}
