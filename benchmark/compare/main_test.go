package main

import "testing"

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		b    []float64
		m    metricDef
		want string
	}{
		{"same", []float64{101, 100, 100, 99, 102}, lower, "ok"},
		{"slower", []float64{120, 121, 119, 120, 122}, lower, "WORSE"},
		{"rate down", []float64{80, 81, 79, 80, 82}, higher, "WORSE"},
		{"rate up", []float64{120, 121, 119, 120, 122}, higher, "ok"},
		{"noisy", []float64{80, 130, 95, 100, 140}, lower, "unresolved"},
		{"noisy but all better", []float64{40, 60, 80, 50, 70}, lower, "ok"},
	} {
		if got := judge(a, c.b, c.m, true).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestJudgeClaim(t *testing.T) {
	m := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99, 100, 102, 100, 101, 99, 100, 102}
	up := make([]float64, len(a))
	for i, v := range a {
		up[i] = v * 1.2
	}
	if !judgeClaim(a, up, m) {
		t.Error("a 20% gain over a 2% spread should be met")
	}
	if judgeClaim(a, a, m) {
		t.Error("no change should not be met")
	}
	if judgeClaim(a[:5], up[:5], m) {
		t.Error("five pairs are too few")
	}
}
