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

// windowOf is a peer's history dump whose one interval served the given
// queries, nErr of them error replies.
func windowOf(t *testing.T, node int, nErr int, durs ...time.Duration) telemetry.HistoryDump {
	t.Helper()
	return trendDump(t, node, time.Second, [][]time.Duration{durs}, map[int]int{0: nErr})
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
	// Three peers with disjoint latency streams in their windows; the merged
	// quantiles must equal those of one histogram fed the union.
	streams := [][]time.Duration{
		{time.Millisecond, 2 * time.Millisecond},
		{10 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond},
		{400 * time.Millisecond},
	}
	union := telemetry.New(99)
	dumps := make(map[addr.Addr]telemetry.HistoryDump)
	for i, durs := range streams {
		dumps[addr.Addr(i)] = windowOf(t, i, 0, durs...)
		for _, d := range durs {
			union.ServedRPCTraced("query", d, false, 0)
		}
	}

	r := AnalyzeCluster(dumps, nil, []addr.Addr{7}, nil)
	if r.Peers != 3 || len(r.Unreachable) != 1 || r.Unreachable[0] != 7 {
		t.Fatalf("report head = %+v", r)
	}
	if r.ServedTotal != 6 || r.ServedErrors != 0 {
		t.Fatalf("RED rollup: served %d errors %d", r.ServedTotal, r.ServedErrors)
	}
	var row *KindLatency
	for i, k := range r.Trends.Kinds {
		if k.Scope == "served" && k.Kind == "query" {
			row = &r.Trends.Kinds[i]
		}
	}
	if row == nil || row.Count != 6 || row.Hist.Count != 6 {
		t.Fatalf("latency rows = %+v", r.Trends.Kinds)
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

// TestAnalyzeClusterTopKAndSLO: the top-K and the objectives read each
// peer's window. Peer 3 served a 900ms error before its ring's first point:
// it is neither the slowest peer nor an erring one, and its old tail breaches
// nothing.
func TestAnalyzeClusterTopKAndSLO(t *testing.T) {
	old := trendDump(t, 3, time.Second, [][]time.Duration{{900 * time.Millisecond}, {time.Millisecond}}, map[int]int{0: 1})
	old.Points = old.Points[1:]
	dumps := map[addr.Addr]telemetry.HistoryDump{
		0: windowOf(t, 0, 0, time.Millisecond, time.Millisecond),
		1: windowOf(t, 1, 2, 2*time.Millisecond, 2*time.Millisecond, 2*time.Millisecond),
		2: windowOf(t, 2, 0, 800*time.Millisecond),
		3: old,
	}
	obj, err := slo.Parse("query:p90:5ms")
	if err != nil {
		t.Fatal(err)
	}
	r := AnalyzeCluster(dumps, nil, nil, []slo.Objective{obj})

	if len(r.TopSlow) != 4 || r.TopSlow[0].Addr != 2 || r.TopSlow[3].Addr != 3 || r.TopSlow[3].Served != 1 {
		t.Fatalf("top slow = %+v, want peer 2 first and peer 3 last, with its one call in the window", r.TopSlow)
	}
	if len(r.TopErr) != 1 || r.TopErr[0].Addr != 1 || r.TopErr[0].ServedErrors != 2 || r.TopErr[0].Served != 3 {
		t.Fatalf("top err = %+v, want only peer 1", r.TopErr)
	}
	if r.ServedTotal != 8 || r.ServedErrors != 3 {
		t.Errorf("RED rollup at the newest points: served %d errors %d, want 8 and 3", r.ServedTotal, r.ServedErrors)
	}

	// 1 of 7 in the window over 5ms ≈ 14.3% bad against a 10% budget: breached.
	if st := r.Trends.SLO; len(st) != 1 || !st[0].Breached || st[0].Total != 7 || st[0].Burn <= 1 {
		t.Fatalf("slo = %+v", st)
	}
	if !r.Breached() {
		t.Fatal("report must be breached")
	}

	// Loosen the threshold: the tail fits, verdict clears.
	obj.Threshold = time.Second
	r = AnalyzeCluster(dumps, nil, nil, []slo.Objective{obj})
	if r.Trends.SLO[0].Breached || r.Breached() {
		t.Fatalf("loose slo = %+v", r.Trends.SLO)
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
	dumps := map[addr.Addr]telemetry.HistoryDump{
		0: windowOf(t, 0, 1, time.Millisecond, 20*time.Millisecond),
		1: windowOf(t, 1, 0, 2*time.Millisecond),
	}
	obj, _ := slo.Parse("query:p90:5ms")
	r := AnalyzeCluster(dumps, digestsWithLiveness(4, 1.0), []addr.Addr{9}, []slo.Objective{obj})

	var buf bytes.Buffer
	RenderClusterReport(&buf, r)
	out := buf.String()
	for _, want := range []string{
		"2 peers collected", "1 unreachable (9)",
		"served 3 (errors 1)",
		"trends         2 peers", "rpc rate",
		"latency", "served  query", "p99",
		"slo            query:p9:5ms           windowed burn",
		"slowest        peer 0: served p99",
		"errors         peer 0: 1 served errors of 2 rpcs in the window",
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
