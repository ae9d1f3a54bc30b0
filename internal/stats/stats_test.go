package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if !almost(s.Mean, 5) {
		t.Errorf("mean = %v", s.Mean)
	}
	// Sample stddev of this classic dataset is sqrt(32/7).
	if !almost(s.Stddev, math.Sqrt(32.0/7.0)) {
		t.Errorf("stddev = %v", s.Stddev)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
	s := Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.Stddev != 0 {
		t.Errorf("singleton summary = %+v", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{3, 1, 3, 2, 3} {
		h.Observe(v)
	}
	if h.Total() != 5 || h.Count(3) != 3 || h.Count(9) != 0 {
		t.Fatalf("histogram state wrong")
	}
	bs := h.Buckets()
	if len(bs) != 3 || bs[0].Value != 1 || bs[2].Value != 3 || bs[2].Count != 3 {
		t.Errorf("buckets = %v", bs)
	}
	if !almost(h.Mean(), 12.0/5.0) {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Total() != 0 {
		t.Error("empty histogram stats wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty histogram must panic")
		}
	}()
	h.Quantile(0.5)
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	for v := 1; v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("median = %d", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %d", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Quantile(2) must panic")
			}
		}()
		h.Quantile(2)
	}()
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram()
	h.Observe(1)
	h.Observe(2)
	h.Observe(2)
	out := h.Render(10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], strings.Repeat("█", 10)) {
		t.Errorf("max bucket not full width:\n%s", out)
	}
	if !strings.Contains(lines[0], strings.Repeat("█", 5)) {
		t.Errorf("half bucket not half width:\n%s", out)
	}
}

func TestCurve(t *testing.T) {
	var c Curve
	c.Add(10, 0.5)
	c.Add(20, 0.9)
	c.Add(30, 1.0)
	if got := c.At(5); got != 0 {
		t.Errorf("At(5) = %v", got)
	}
	if got := c.At(15); got != 0.5 {
		t.Errorf("At(15) = %v", got)
	}
	if got := c.At(100); got != 1.0 {
		t.Errorf("At(100) = %v", got)
	}
}

func TestGini(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Errorf("empty gini = %v", g)
	}
	if g := Gini([]float64{5, 5, 5, 5}); !almost(g, 0) {
		t.Errorf("even gini = %v", g)
	}
	// All mass on one element of n: gini = (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 10}); !almost(g, 0.75) {
		t.Errorf("concentrated gini = %v", g)
	}
	if g := Gini([]float64{0, 0}); g != 0 {
		t.Errorf("all-zero gini = %v", g)
	}
	// Order must not matter.
	if Gini([]float64{1, 2, 3}) != Gini([]float64{3, 1, 2}) {
		t.Error("gini order-dependent")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative value must panic")
		}
	}()
	Gini([]float64{1, -1})
}

func TestPropGiniBounds(t *testing.T) {
	f := func(vs []uint16) bool {
		xs := make([]float64, len(vs))
		for i, v := range vs {
			xs[i] = float64(v)
		}
		g := Gini(xs)
		return g >= -1e-12 && g < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSummaryBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip pathological magnitudes whose sums overflow float64;
			// the moments are meaningless there.
			if math.IsNaN(x) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.Stddev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropHistogramTotalMatchesBuckets(t *testing.T) {
	f := func(vs []uint8) bool {
		h := NewHistogram()
		for _, v := range vs {
			h.Observe(int(v))
		}
		sum := 0
		for _, b := range h.Buckets() {
			sum += b.Count
		}
		return sum == h.Total() && h.Total() == len(vs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Count returns the number of observations of v.
func (h *Histogram) Count(v int) int { return h.counts[v] }
