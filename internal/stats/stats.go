// Package stats provides the small statistical toolkit the experiments
// need: histograms (the replica-distribution plot of Fig. 4), summary
// moments, and distribution comparisons — stdlib only.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the usual moments of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64
}

// Summarize computes a Summary of xs. An empty sample yields the zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// String renders the summary for reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%g max=%g mean=%.4g stddev=%.4g", s.N, s.Min, s.Max, s.Mean, s.Stddev)
}

// Gini returns the Gini coefficient of a non-negative sample: 0 for a
// perfectly even distribution, approaching 1 as everything concentrates on
// one element. The load-balancing experiments use it to quantify how
// evenly index entries spread over peers.
func Gini(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var cum, sum float64
	for i, x := range sorted {
		if x < 0 {
			panic("stats: Gini of negative value")
		}
		cum += float64(i+1) * x
		sum += x
	}
	if sum == 0 {
		return 0
	}
	n := float64(len(xs))
	return (2*cum)/(n*sum) - (n+1)/n
}

// Histogram is an integer-valued frequency count, e.g. "number of peers
// having each replication factor" (Fig. 4).
type Histogram struct {
	counts map[int]int
	total  int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Observe adds one observation of value v.
func (h *Histogram) Observe(v int) {
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int { return h.total }

// Bucket is one histogram row.
type Bucket struct {
	Value int
	Count int
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.counts))
	for v, c := range h.counts {
		out = append(out, Bucket{v, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// MarshalJSON writes the histogram as its buckets.
func (h *Histogram) MarshalJSON() ([]byte, error) { return json.Marshal(h.Buckets()) }

// Mean returns the mean observed value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	sum := 0
	for v, c := range h.counts {
		sum += v * c
	}
	return float64(sum) / float64(h.total)
}

// Render draws the histogram as an ASCII bar chart at most width columns
// wide — the textual stand-in for the paper's Fig. 4/5 plots.
func (h *Histogram) Render(width int) string {
	if width < 1 {
		width = 40
	}
	bs := h.Buckets()
	maxc := 0
	for _, b := range bs {
		if b.Count > maxc {
			maxc = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bs {
		bar := 0
		if maxc > 0 {
			bar = b.Count * width / maxc
		}
		fmt.Fprintf(&sb, "%4d | %-*s %d\n", b.Value, width, strings.Repeat("█", bar), b.Count)
	}
	return sb.String()
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the observed values using
// the nearest-rank method. It panics on an empty histogram or q outside
// [0,1].
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		panic("stats: Quantile of empty histogram")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) out of range", q))
	}
	rank := int(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	cum := 0
	for _, b := range h.Buckets() {
		cum += b.Count
		if cum >= rank {
			return b.Value
		}
	}
	bs := h.Buckets()
	return bs[len(bs)-1].Value
}

// Curve is a monotone series of (x, y) points, e.g. "messages spent vs
// fraction of replicas found" (Fig. 5).
type Curve struct {
	Points []Point
}

// Point is one sample of a curve.
type Point struct {
	X float64
	Y float64
}

// Add appends a point.
func (c *Curve) Add(x, y float64) { c.Points = append(c.Points, Point{x, y}) }

// At returns the y value of the last point with X ≤ x (step
// interpolation), or 0 before the first point.
func (c Curve) At(x float64) float64 {
	y := 0.0
	for _, p := range c.Points {
		if p.X > x {
			break
		}
		y = p.Y
	}
	return y
}
