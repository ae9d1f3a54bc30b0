package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestQIndexBounds checks that every probed value lands in a bucket whose
// range actually contains it, and that bucket indices are monotone in the
// value.
func TestQIndexBounds(t *testing.T) {
	probes := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 1000, 4095, 4096,
		65535, 1 << 20, 1<<20 + 1, 1e9, 123456789012, 1 << 62, (1 << 62) + (1 << 61)}
	prevIdx := -1
	for _, v := range probes {
		idx := qIndex(v)
		if idx < 0 || idx >= qBuckets {
			t.Fatalf("qIndex(%d) = %d out of range [0,%d)", v, idx, qBuckets)
		}
		lo, hi := qBounds(idx)
		if v < lo || v > hi {
			t.Errorf("qIndex(%d) = %d but qBounds gives [%d,%d]", v, idx, lo, hi)
		}
		if idx < prevIdx {
			t.Errorf("qIndex not monotone: qIndex(%d) = %d < previous %d", v, idx, prevIdx)
		}
		prevIdx = idx
	}
	// Exhaustive roundtrip over the low range where buckets are exact.
	for v := int64(0); v < qSubCount; v++ {
		lo, hi := qBounds(qIndex(v))
		if lo != v || hi != v {
			t.Fatalf("small value %d: want exact bucket, got [%d,%d]", v, lo, hi)
		}
	}
}

// TestQuantileAccuracyTable observes the integers 1..10000 once each and
// checks the quantile estimates against hand-computed bucket midpoints.
// With qSubBits=4 the bucket holding a value v ≥ 16 spans
// [(16+sub)<<o, (16+sub+1)<<o - 1] where o = len64(v)-5 and
// sub = (v>>o)&15, so:
//
//	p50  → rank 5000 → value 5000 → o=8, sub=3  → [4864,5119] → mid 4991
//	p99  → rank 9900 → value 9900 → o=9, sub=3  → [9728,10239] → mid 9983
//	p999 → rank 9990 → value 9990 → same bucket             → mid 9983
//
// The relative error bound for this layout is 1/32 ≈ 3.2%.
func TestQuantileAccuracyTable(t *testing.T) {
	q := &QHist{name: "test"}
	for v := int64(1); v <= 10000; v++ {
		q.Observe(v)
	}
	cases := []struct {
		p     float64
		want  int64 // hand-computed bucket midpoint
		exact int64 // exact quantile of the distribution
	}{
		{0.5, 4991, 5000},
		{0.95, 9599, 9500}, // 9500: o=9, sub=2 → [9216,9727] → mid 9471? see below
		{0.99, 9983, 9900},
		{0.999, 9983, 9990},
	}
	// Re-derive the p95 midpoint in-code to keep the table honest: rank
	// 9500 → value 9500 → o=9, sub=(9500>>9)&15 = 18&15 = 2 →
	// lo=(16+2)<<9=9216, hi=9727, mid=9471.
	cases[1].want = 9471
	for _, c := range cases {
		got := q.Quantile(c.p)
		if got != c.want {
			t.Errorf("Quantile(%g) = %d, want hand-computed midpoint %d", c.p, got, c.want)
		}
		relErr := float64(got-c.exact) / float64(c.exact)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 1.0/32.0+1e-9 {
			t.Errorf("Quantile(%g) = %d vs true %d: relative error %.4f exceeds 1/32", c.p, got, c.exact, relErr)
		}
	}
	if q.Count() != 10000 {
		t.Errorf("Count = %d, want 10000", q.Count())
	}
	wantSum := int64(10000 * 10001 / 2)
	if q.Sum() != wantSum {
		t.Errorf("Sum = %d, want %d", q.Sum(), wantSum)
	}
}

// TestQuantileSmallExact checks the exact low-value buckets and edge cases.
func TestQuantileSmallExact(t *testing.T) {
	q := &QHist{name: "small"}
	if got := q.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	for v := int64(0); v < 16; v++ {
		q.Observe(v)
	}
	// 16 observations 0..15; rank for p is max(1, ⌊16p⌋), value rank-1.
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 0}, {0.5, 7}, {1, 15}} {
		if got := q.Quantile(c.p); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	q.Observe(-5) // negative clamps to bucket 0, not counted in sum
	if got := q.Quantile(0); got != 0 {
		t.Errorf("after negative observe, Quantile(0) = %d, want 0", got)
	}
	sum := int64(15 * 16 / 2)
	if q.Sum() != sum {
		t.Errorf("Sum = %d, want %d (negatives excluded)", q.Sum(), sum)
	}
}

// TestQuantilesMonotone checks that a multi-point snapshot is internally
// ordered even under concurrent writers.
func TestQuantilesMonotone(t *testing.T) {
	q := &QHist{name: "mono"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				v = v*6364136223846793005 + 1442695040888963407
				q.Observe((v >> 16) & 0xfffff)
			}
		}(int64(w + 1))
	}
	for i := 0; i < 100; i++ {
		qs := q.Quantiles(0.5, 0.95, 0.99, 0.999)
		for j := 1; j < len(qs); j++ {
			if qs[j] < qs[j-1] {
				t.Fatalf("quantile snapshot not monotone: %v", qs)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestQHistNilSafe exercises every method on a nil receiver.
func TestQHistNilSafe(t *testing.T) {
	var q *QHist
	q.Observe(5)
	if q.Count() != 0 || q.Sum() != 0 || q.Quantile(0.5) != 0 {
		t.Error("nil QHist methods must be no-ops")
	}
	if got := q.Quantiles(0.5, 0.99); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("nil Quantiles = %v, want zeros", got)
	}
	var r *Registry
	if r.Quantile("x", "") != nil {
		t.Error("nil Registry.Quantile must return nil")
	}
}

// TestRegistryQuantileRendering checks idempotent registration, Snapshot
// expansion, and the Prometheus summary rendering with label injection.
func TestRegistryQuantileRendering(t *testing.T) {
	r := NewRegistry()
	q := r.Quantile(`pgrid_rpc_kind_latency_ns{kind="query"}`, "RPC latency.")
	if q2 := r.Quantile(`pgrid_rpc_kind_latency_ns{kind="query"}`, "RPC latency."); q2 != q {
		t.Fatal("Quantile registration not idempotent")
	}
	for i := int64(1); i <= 100; i++ {
		q.Observe(i * 1000)
	}
	snap := r.Snapshot()
	names := make(map[string]int64, len(snap))
	for _, s := range snap {
		names[s.Name] = s.Value
	}
	for _, want := range []string{
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.5"}`,
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.999"}`,
		`pgrid_rpc_kind_latency_ns_sum{kind="query"}`,
		`pgrid_rpc_kind_latency_ns_count{kind="query"}`,
	} {
		if _, ok := names[want]; !ok {
			t.Errorf("Snapshot missing %s (have %v)", want, snap)
		}
	}
	if got := names[`pgrid_rpc_kind_latency_ns_count{kind="query"}`]; got != 100 {
		t.Errorf("summary count = %d, want 100", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pgrid_rpc_kind_latency_ns summary",
		`pgrid_rpc_kind_latency_ns{kind="query",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q:\n%s", want, out)
		}
	}
}

// Quantile estimates the p-quantile (p in [0,1]) as the midpoint of the
// bucket holding the rank-⌈p·count⌉ observation. 0 with no observations
// or a nil receiver.
func (q *QHist) Quantile(p float64) int64 {
	if q == nil {
		return 0
	}
	qs := q.Quantiles(p)
	return qs[0]
}
