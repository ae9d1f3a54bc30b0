package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// observeStream feeds vs into q and returns them (convenience).
func observeStream(q *QHist, vs []int64) {
	for _, v := range vs {
		q.Observe(v)
	}
}

// randStream draws n observations from an adversarial mix of scales:
// exact small values, mid-range latencies, heavy tails, bucket-boundary
// values, and zeros.
func randStream(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		switch rng.Intn(6) {
		case 0:
			out[i] = int64(rng.Intn(qSubCount)) // exact buckets
		case 1:
			out[i] = rng.Int63n(1_000_000) // sub-ms
		case 2:
			out[i] = rng.Int63n(100_000_000) // up to 100ms
		case 3:
			out[i] = rng.Int63() // full range tail
		case 4:
			lo, _ := qBounds(rng.Intn(qBuckets)) // exact bucket boundaries
			out[i] = lo
		default:
			out[i] = 0
		}
	}
	return out
}

func TestQHistSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := NewRegistry()
	q := r.Quantile("q", "")
	observeStream(q, randStream(rng, 5000))

	s := q.Snapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Name != "q" || s.SubBits != qSubBits {
		t.Fatalf("snapshot meta = %q/%d", s.Name, s.SubBits)
	}
	if s.Count != q.Count() || s.Sum != q.Sum() {
		t.Fatalf("snapshot count/sum = %d/%d, live %d/%d", s.Count, s.Sum, q.Count(), q.Sum())
	}
	// Quantiles computed from the snapshot must equal the live histogram's.
	live := q.Quantiles(QuantilePoints...)
	snap := s.Quantiles(QuantilePoints...)
	for i := range live {
		if live[i] != snap[i] {
			t.Errorf("p%v: snapshot %d != live %d", QuantilePoints[i], snap[i], live[i])
		}
	}
}

func TestQHistSnapshotNilAndEmpty(t *testing.T) {
	var q *QHist
	s := q.Snapshot()
	if !s.Empty() || s.Count != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Quantiles(QuantilePoints...); got[0] != 0 || got[3] != 0 {
		t.Fatalf("empty quantiles = %v", got)
	}
	if s.CountAtOrBelow(math.MaxInt64) != 0 {
		t.Fatal("empty CountAtOrBelow != 0")
	}
}

// TestMergeMatchesUnion is the central merge property: for random
// per-node streams, quantiles of the merged snapshots must agree with a
// histogram that observed the union of all streams — exactly, since the
// merge is a bucket-wise sum. Cross-checked against the true union
// quantile within the documented ≤3.2% relative error.
func TestMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nodes := 2 + rng.Intn(4)
		var union QHist
		merged := QHistSnapshot{}
		var all []int64
		for i := 0; i < nodes; i++ {
			var q QHist
			stream := randStream(rng, 200+rng.Intn(2000))
			observeStream(&q, stream)
			observeStream(&union, stream)
			all = append(all, stream...)
			var err error
			merged, err = MergeQHist(merged, q.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Validate(); err != nil {
			t.Fatal(err)
		}
		if merged.Count != union.Count() {
			t.Fatalf("merged count %d != union %d", merged.Count, union.Count())
		}

		mq := merged.Quantiles(QuantilePoints...)
		uq := union.Quantiles(QuantilePoints...)
		for i := range mq {
			if mq[i] != uq[i] {
				t.Fatalf("trial %d p%v: merged %d != union-observed %d", trial, QuantilePoints[i], mq[i], uq[i])
			}
		}

		// And against ground truth: the merged estimate must sit within
		// 3.2% of the exact rank statistic (clamping: values < qSubCount
		// are represented exactly, so tiny quantiles have zero error).
		exact := exactQuantiles(all, QuantilePoints)
		for i, want := range exact {
			got := mq[i]
			if want == 0 {
				if got != 0 {
					t.Fatalf("trial %d p%v: est %d for exact 0", trial, QuantilePoints[i], got)
				}
				continue
			}
			rel := math.Abs(float64(got)-float64(want)) / float64(want)
			if rel > 0.032 {
				t.Fatalf("trial %d p%v: est %d vs exact %d (rel err %.4f > 3.2%%)",
					trial, QuantilePoints[i], got, want, rel)
			}
		}
	}
}

// exactQuantiles computes true rank statistics with the same rank rule
// the histogram uses (rank = ⌈p·n⌉, clamped to ≥1).
func exactQuantiles(vs []int64, ps []float64) []int64 {
	sorted := append([]int64(nil), vs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]int64, len(ps))
	for i, p := range ps {
		rank := int64(p * float64(len(sorted)))
		if rank < 1 {
			rank = 1
		}
		v := sorted[rank-1]
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

func TestMergeRejectsGeometryMismatch(t *testing.T) {
	var q QHist
	q.Observe(100)
	a := q.Snapshot()
	b := q.Snapshot()
	b.SubBits = qSubBits + 1
	if _, err := MergeQHist(a, b); err == nil {
		t.Fatal("merge accepted mismatched bucket geometry")
	}
	// The zero value is the merge identity regardless of side.
	m, err := MergeQHist(QHistSnapshot{}, a)
	if err != nil || m.Count != a.Count {
		t.Fatalf("identity merge = %+v, %v", m, err)
	}
	m, err = MergeQHist(a, QHistSnapshot{})
	if err != nil || m.Count != a.Count {
		t.Fatalf("identity merge = %+v, %v", m, err)
	}
}

// TestQuantilesMonotoneAdversarial: rendered quantiles are monotone
// (p50 ≤ p95 ≤ p99 ≤ p999) under adversarial random observation
// streams, including the empty-histogram and single-bucket edge cases.
func TestQuantilesMonotoneAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	check := func(name string, qs []int64) {
		t.Helper()
		for i := 1; i < len(qs); i++ {
			if qs[i] < qs[i-1] {
				t.Fatalf("%s: quantiles not monotone: %v", name, qs)
			}
		}
	}
	// Empty histogram.
	var empty QHist
	check("empty", empty.Quantiles(QuantilePoints...))
	check("empty-snapshot", empty.Snapshot().Quantiles(QuantilePoints...))
	// Single bucket: every observation identical.
	var single QHist
	for i := 0; i < 100; i++ {
		single.Observe(12345)
	}
	qs := single.Quantiles(QuantilePoints...)
	check("single", qs)
	if qs[0] != qs[3] {
		t.Fatalf("single-bucket quantiles differ: %v", qs)
	}
	// Adversarial random streams, live and merged-snapshot renderings.
	for trial := 0; trial < 50; trial++ {
		var q QHist
		observeStream(&q, randStream(rng, 1+rng.Intn(3000)))
		check("live", q.Quantiles(QuantilePoints...))
		s := q.Snapshot()
		check("snapshot", s.Quantiles(QuantilePoints...))
		m, err := MergeQHist(s, s)
		if err != nil {
			t.Fatal(err)
		}
		check("merged", m.Quantiles(QuantilePoints...))
	}
}

func TestCountAtOrBelow(t *testing.T) {
	var q QHist
	for i := 0; i < 90; i++ {
		q.Observe(1_000_000) // 1ms
	}
	for i := 0; i < 10; i++ {
		q.Observe(50_000_000) // 50ms tail
	}
	s := q.Snapshot()
	if got := s.CountAtOrBelow(5_000_000); got != 90 {
		t.Fatalf("CountAtOrBelow(5ms) = %d, want 90", got)
	}
	if got := s.CountAtOrBelow(math.MaxInt64); got != 100 {
		t.Fatalf("CountAtOrBelow(max) = %d, want 100", got)
	}
	if got := s.CountAtOrBelow(0); got != 0 {
		t.Fatalf("CountAtOrBelow(0) = %d, want 0", got)
	}
}

func TestRegistryMetricsSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(7)
	r.GaugeFunc("g", "", func() int64 { return -3 })
	r.CounterFunc("gf", "", func() int64 { return 11 })
	r.Quantile("lat_ns", "").Observe(1000)

	m := r.MetricsSnapshot()
	for name, want := range map[string]int64{"c_total": 7, "g": -3, "gf": 11} {
		if got, ok := m.Stat(name); !ok || got != want {
			t.Errorf("stat %s = %d,%v want %d", name, got, ok, want)
		}
	}
	h, ok := m.Hist("lat_ns")
	if !ok || h.Count != 1 {
		t.Fatalf("hist = %+v, %v", h, ok)
	}
	// Nil registry or instruments: an empty snapshot.
	var nilReg *Registry
	if m := nilReg.MetricsSnapshot(); len(m.Stats) != 0 || len(m.Hists) != 0 {
		t.Fatalf("nil registry snapshot = %+v", m)
	}
	var nilInst *Instruments
	if m := nilInst.MetricsSnapshot(); m.StartEpochNS != 0 || len(m.Stats) != 0 {
		t.Fatalf("nil instruments snapshot = %+v", m)
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	snap := r.Snapshot()
	vals := map[string]int64{}
	for _, s := range snap {
		vals[s.Name] = s.Value
	}
	if vals["pgrid_go_goroutines"] < 1 {
		t.Errorf("goroutines gauge = %d", vals["pgrid_go_goroutines"])
	}
	if vals["pgrid_go_heap_bytes"] <= 0 {
		t.Errorf("heap gauge = %d", vals["pgrid_go_heap_bytes"])
	}
	if _, ok := vals["pgrid_go_gc_pause_ns"]; !ok {
		t.Error("gc pause gauge missing")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "# TYPE pgrid_go_goroutines gauge") {
		t.Errorf("prometheus rendering missing runtime gauge:\n%s", sb.String())
	}
	// Idempotent re-registration.
	RegisterRuntimeMetrics(r)
	if got := len(r.Snapshot()); got != len(snap) {
		t.Errorf("re-registration grew the registry: %d -> %d", len(snap), got)
	}
}
