package analysis

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
)

// snapFor builds a metrics snapshot whose served-query histogram observed
// the given durations, with nErr of them marked as error replies.
func snapFor(t *testing.T, node int, nErr int, durs ...time.Duration) telemetry.MetricsSnapshot {
	t.Helper()
	tel := telemetry.New(node)
	for i, d := range durs {
		tel.ServedRPC("query")
		tel.ServedRPCTraced("query", d, i < nErr, 0)
	}
	return tel.MetricsSnapshot()
}

func TestSplitHistName(t *testing.T) {
	cases := []struct{ full, family, kind string }{
		{`pgrid_rpc_served_latency_ns{kind="query"}`, "pgrid_rpc_served_latency_ns", "query"},
		{`pgrid_rpc_kind_latency_ns{kind="exchange"}`, "pgrid_rpc_kind_latency_ns", "exchange"},
		{"pgrid_pool_acquire_wait_ns", "pgrid_pool_acquire_wait_ns", ""},
		{`weird{other="x"}`, "weird", ""},
	}
	for _, c := range cases {
		family, kind := splitHistName(c.full)
		if family != c.family || kind != c.kind {
			t.Errorf("splitHistName(%q) = %q, %q", c.full, family, kind)
		}
	}
}

func TestAnalyzeClusterMergesQuantiles(t *testing.T) {
	// Three peers with disjoint latency streams; the merged quantiles must
	// equal those of one histogram fed the union.
	streams := [][]time.Duration{
		{time.Millisecond, 2 * time.Millisecond},
		{10 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond},
		{400 * time.Millisecond},
	}
	union := telemetry.New(99)
	snaps := make(map[addr.Addr]telemetry.MetricsSnapshot)
	for i, durs := range streams {
		snaps[addr.Addr(i)] = snapFor(t, i, 0, durs...)
		for _, d := range durs {
			union.ServedRPCTraced("query", d, false, 0)
		}
	}

	r := AnalyzeCluster(snaps, nil, []addr.Addr{7}, nil)
	if r.Peers != 3 || len(r.Unreachable) != 1 || r.Unreachable[0] != 7 {
		t.Fatalf("report head = %+v", r)
	}
	if r.ServedTotal != 6 || r.ServedErrors != 0 {
		t.Fatalf("RED rollup: served %d errors %d", r.ServedTotal, r.ServedErrors)
	}
	var row *KindLatency
	for i := range r.Latency {
		if r.Latency[i].Scope == "served" && r.Latency[i].Kind == "query" {
			row = &r.Latency[i]
		}
	}
	if row == nil || row.Count != 6 {
		t.Fatalf("latency rows = %+v", r.Latency)
	}
	uh, _ := union.MetricsSnapshot().Hist(`pgrid_rpc_served_latency_ns{kind="query"}`)
	for i, p := range telemetry.QuantilePoints {
		want := uh.Quantile(p)
		got := []int64{row.P50, row.P95, row.P99, row.P999}[i]
		if got != want {
			t.Errorf("merged q%g = %d, union = %d", p, got, want)
		}
	}
}

func TestAnalyzeClusterTopKAndSLO(t *testing.T) {
	snaps := map[addr.Addr]telemetry.MetricsSnapshot{
		0: snapFor(t, 0, 0, time.Millisecond, time.Millisecond),
		1: snapFor(t, 1, 2, 2*time.Millisecond, 2*time.Millisecond, 2*time.Millisecond),
		2: snapFor(t, 2, 0, 800*time.Millisecond),
	}
	obj, err := slo.Parse("query:p90:5ms")
	if err != nil {
		t.Fatal(err)
	}
	r := AnalyzeCluster(snaps, nil, nil, []slo.Objective{obj})

	if len(r.TopSlow) == 0 || r.TopSlow[0].Addr != 2 {
		t.Fatalf("top slow = %+v, want peer 2 first", r.TopSlow)
	}
	if len(r.TopErr) != 1 || r.TopErr[0].Addr != 1 || r.TopErr[0].ServedErrors != 2 {
		t.Fatalf("top err = %+v, want only peer 1", r.TopErr)
	}

	// 1 of 6 over 5ms ≈ 16.7% bad against a 10% budget: breached.
	if len(r.SLO) != 1 || !r.SLO[0].Breached || r.SLO[0].Burn <= 1 {
		t.Fatalf("slo = %+v", r.SLO)
	}
	if !r.Breached() {
		t.Fatal("report must be breached")
	}

	// Loosen the threshold: the tail fits, verdict clears.
	obj.Threshold = time.Second
	r = AnalyzeCluster(snaps, nil, nil, []slo.Objective{obj})
	if r.SLO[0].Breached || r.Breached() {
		t.Fatalf("loose slo = %+v", r.SLO)
	}
}

// digestsWithLiveness fabricates a census where frac of the peers can
// route at full depth (each peer has one level, one reference).
func digestsWithLiveness(n int, liveFrac float64) []health.Digest {
	live := int(liveFrac * float64(n))
	out := make([]health.Digest, n)
	for i := range out {
		probe := health.LevelProbe{Level: 1, Live: 1}
		if i >= live {
			probe = health.LevelProbe{Level: 1, Dead: 1}
		}
		path := "0"
		if i%2 == 1 {
			path = "1"
		}
		out[i] = health.Digest{Addr: addr.Addr(i), Path: bitpath.MustParse(path),
			RefCounts: []int{1}, Liveness: []health.LevelProbe{probe}}
	}
	return out
}

func TestAnalyzeClusterAvailabilityObjective(t *testing.T) {
	// Fully live: measured 1.0, prediction high → within margin.
	r := AnalyzeCluster(nil, digestsWithLiveness(10, 1.0), nil, nil)
	if !r.AvailabilityKnown || r.AvailabilityBreached {
		t.Fatalf("healthy availability = %+v", r)
	}

	// Half the peers cannot route: measured 0.5 while the Eq.3 prediction
	// at p̂=0.5 with one reference per level is 0.5... make the structure
	// predict much better than measured by giving dead peers two refs.
	digests := digestsWithLiveness(10, 0.3)
	for i := range digests {
		digests[i].RefCounts = []int{4}
	}
	r = AnalyzeCluster(nil, digests, nil, nil)
	if !r.AvailabilityKnown {
		t.Fatal("availability should be known")
	}
	// p̂ = 0.3; Eq.3 with refmax 4 predicts 1-(0.7)^4 ≈ 0.76, measured 0.3.
	if !r.AvailabilityBreached {
		t.Fatalf("availability should breach: measured %.3f target %.3f",
			r.AvailabilityMeasured, r.AvailabilityTarget)
	}

	// No probe data: unknown, never a breach.
	r = AnalyzeCluster(nil, nil, nil, nil)
	if r.AvailabilityKnown || r.AvailabilityBreached {
		t.Fatalf("no-data availability = %+v", r)
	}
}

func TestRenderClusterReport(t *testing.T) {
	snaps := map[addr.Addr]telemetry.MetricsSnapshot{
		0: snapFor(t, 0, 1, time.Millisecond, 20*time.Millisecond),
		1: snapFor(t, 1, 0, 2*time.Millisecond),
	}
	obj, _ := slo.Parse("query:p90:5ms")
	r := AnalyzeCluster(snaps, digestsWithLiveness(4, 1.0), []addr.Addr{9}, []slo.Objective{obj})

	var buf bytes.Buffer
	RenderClusterReport(&buf, r)
	out := buf.String()
	for _, want := range []string{
		"2 peers collected", "1 unreachable (9)",
		"served 3 (errors 1)",
		"latency", "served  query", "p99",
		"slo            query:p9:5ms",
		"availability measured",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Empty report renders the header and stops.
	buf.Reset()
	RenderClusterReport(&buf, AnalyzeCluster(nil, nil, nil, nil))
	if !strings.Contains(buf.String(), "0 peers collected") {
		t.Fatalf("empty render = %q", buf.String())
	}
}
