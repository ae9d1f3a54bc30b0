package analysis

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/health"
	"pgrid/internal/node"
	"pgrid/internal/sim"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// TestSuccessProbabilityTable pins equation (3) against hand-computed
// values over p ∈ {0.2, 0.5, 0.8}, refmax ∈ {1, 2, 4}, k ≤ 8.
func TestSuccessProbabilityTable(t *testing.T) {
	cases := []struct {
		p      float64
		refmax int
		k      int
		want   float64
	}{
		{0.2, 1, 1, 0.2},
		{0.2, 1, 2, 0.04},
		{0.2, 1, 4, 0.0016},
		{0.2, 1, 8, 0.00000256},
		{0.2, 2, 1, 0.36},
		{0.2, 2, 2, 0.1296},
		{0.2, 2, 4, 0.01679616},
		{0.2, 2, 8, 0.0002821110},
		{0.2, 4, 1, 0.5904},
		{0.2, 4, 2, 0.34857216},
		{0.2, 4, 4, 0.1215025507},
		{0.2, 4, 8, 0.0147628698},
		{0.5, 1, 1, 0.5},
		{0.5, 1, 2, 0.25},
		{0.5, 1, 4, 0.0625},
		{0.5, 1, 8, 0.00390625},
		{0.5, 2, 1, 0.75},
		{0.5, 2, 2, 0.5625},
		{0.5, 2, 4, 0.31640625},
		{0.5, 2, 8, 0.1001129150},
		{0.5, 4, 1, 0.9375},
		{0.5, 4, 2, 0.87890625},
		{0.5, 4, 4, 0.7724761963},
		{0.5, 4, 8, 0.5967194738},
		{0.8, 1, 1, 0.8},
		{0.8, 1, 2, 0.64},
		{0.8, 1, 4, 0.4096},
		{0.8, 1, 8, 0.16777216},
		{0.8, 2, 1, 0.96},
		{0.8, 2, 2, 0.9216},
		{0.8, 2, 4, 0.84934656},
		{0.8, 2, 8, 0.7213895790},
		{0.8, 4, 1, 0.9984},
		{0.8, 4, 2, 0.99680256},
		{0.8, 4, 4, 0.9936153436},
		{0.8, 4, 8, 0.9872714511},
	}
	for _, c := range cases {
		got := SuccessProbability(c.p, c.refmax, c.k)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SuccessProbability(%v, %d, %d) = %.10f, want %.10f",
				c.p, c.refmax, c.k, got, c.want)
		}
	}
}

func addrOf(v int) addr.Addr { return addr.Addr(v) }

// digest builds a test digest in one line.
func digest(a int, path string, entries int, hash uint64, refCounts []int, probes []health.LevelProbe) health.Digest {
	return health.Digest{Addr: addrOf(a), Path: bitpath.MustParse(path), Entries: entries,
		IndexHash: hash, RefCounts: refCounts, Liveness: probes}
}

func TestAnalyzeGridCensus(t *testing.T) {
	live := func(levels ...int) []health.LevelProbe {
		var out []health.LevelProbe
		for _, l := range levels {
			out = append(out, health.LevelProbe{Level: l, Live: 1})
		}
		return out
	}
	digests := []health.Digest{
		digest(0, "0", 5, 0xaa, []int{1}, live(1)),
		digest(3, "0", 5, 0xbb, []int{1}, live(1)), // diverged replica of "0"
		digest(1, "10", 2, 0xcc, []int{1, 1}, live(1, 2)),
		digest(2, "11", 2, 0xdd, []int{1, 1}, []health.LevelProbe{
			{Level: 1, Live: 1}, {Level: 2, Dead: 1}}), // level 2 all dead
	}
	r := AnalyzeGrid(digests)

	if r.Peers != 4 || len(r.Census) != 3 {
		t.Fatalf("report = %+v", r)
	}
	if r.Census[0].Path != bitpath.MustParse("0") || len(r.Census[0].Replicas) != 2 ||
		r.Census[0].Replicas[0] != addrOf(0) || r.Census[0].Replicas[1] != addrOf(3) {
		t.Errorf("census[0] = %+v", r.Census[0])
	}
	if !r.Census[0].Divergent() || r.Census[1].Divergent() || r.DivergentPaths != 1 {
		t.Errorf("divergence wrong: %+v", r.Census)
	}
	if r.MinDepth != 1 || r.MaxDepth != 2 || r.MeanDepth != 1.5 {
		t.Errorf("depth stats = %+v", r)
	}
	// Largest group 2, mean group 4/3 → imbalance 1.5.
	if math.Abs(r.ReplicaImbalance-1.5) > 1e-9 {
		t.Errorf("imbalance = %v, want 1.5", r.ReplicaImbalance)
	}
	// Probes: 5 live, 1 dead → p̂ = 5/6.
	if r.ProbedPeers != 4 || r.ProbesLive != 5 || r.ProbesDead != 1 {
		t.Errorf("probe tallies = %+v", r)
	}
	if math.Abs(r.ProbeLiveness-5.0/6) > 1e-9 || math.Abs(r.StaleRefRate-1.0/6) > 1e-9 {
		t.Errorf("liveness = %v stale = %v", r.ProbeLiveness, r.StaleRefRate)
	}
	// Peer 2's level 2 saw no live reference → 3 of 4 available.
	if math.Abs(r.MeasuredAvailability-0.75) > 1e-9 {
		t.Errorf("measured availability = %v, want 0.75", r.MeasuredAvailability)
	}
	// Predicted: single-ref levels at p̂ → depth-1 peers p̂, depth-2 peers p̂².
	p := 5.0 / 6
	wantPred := (p + p + p*p + p*p) / 4
	if math.Abs(r.PredictedAvailability-wantPred) > 1e-9 {
		t.Errorf("predicted availability = %v, want %v", r.PredictedAvailability, wantPred)
	}
	// Eq. 3 at the typical shape: refmax 1, k = round(1.5) = 2.
	if r.Eq3RefMax != 1 || r.Eq3Depth != 2 ||
		math.Abs(r.Eq3Availability-SuccessProbability(p, 1, 2)) > 1e-9 {
		t.Errorf("Eq3 = %+v", r)
	}
	if !r.AvailabilityAgrees(0.1) {
		t.Errorf("measured %v vs predicted %v should agree within 0.1",
			r.MeasuredAvailability, r.PredictedAvailability)
	}
}

func TestAnalyzeGridNoProbes(t *testing.T) {
	r := AnalyzeGrid([]health.Digest{digest(0, "0", 0, 0, []int{1}, nil)})
	if r.ProbeLiveness != -1 || r.MeasuredAvailability != -1 || r.PredictedAvailability != -1 {
		t.Errorf("probe-free report carries probe stats: %+v", r)
	}
	if r.AvailabilityAgrees(1) {
		t.Error("probe-free report claims availability agreement")
	}
	empty := AnalyzeGrid(nil)
	if empty.Peers != 0 || empty.AvailabilityAgrees(1) {
		t.Errorf("empty report = %+v", empty)
	}
}

func TestRenderGridReport(t *testing.T) {
	digests := []health.Digest{
		digest(0, "0", 5, 0xaa, []int{1}, []health.LevelProbe{{Level: 1, Live: 3, Dead: 1}}),
		digest(1, "1", 5, 0xaa, []int{1}, nil),
	}
	var sb strings.Builder
	RenderGridReport(&sb, AnalyzeGrid(digests))
	out := sb.String()
	for _, want := range []string{"peers          2 over 2 paths", "depth", "balance",
		"liveness 0.75", "availability", "Eq.3", "census", "divergence     0 of 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("report %q missing %q", out, want)
		}
	}

	var empty strings.Builder
	RenderGridReport(&empty, AnalyzeGrid(nil))
	if !strings.Contains(empty.String(), "0 over 0 paths") {
		t.Errorf("empty render = %q", empty.String())
	}
}

// TestEq3AgainstMeasuredProbes is the end-to-end availability check: build
// a 64-peer community, knock a third of it offline, probe every reference
// from the survivors, and require the measured full-depth routing success
// to agree with the structural equation-(3) prediction.
func TestEq3AgainstMeasuredProbes(t *testing.T) {
	cfg := core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
	res, err := sim.Build(sim.Options{N: 64, Config: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("construction did not converge")
	}

	tr := node.NewLocalTransport()
	nodes := make([]*node.Node, 0, 64)
	for _, p := range res.Dir.All() {
		n := node.New(p.Addr(), cfg, tr, int64(p.Addr()))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		tr.Register(n)
		nodes = append(nodes, n)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range nodes {
		if rng.Float64() < 0.3 {
			n.SetOnline(false)
		}
	}

	var digests []health.Digest
	for i, n := range nodes {
		if !n.Online() {
			continue
		}
		node.NewProber(n, 1000, int64(i)).Tick()
		digests = append(digests, n.Digest())
	}
	if len(digests) < 32 {
		t.Fatalf("only %d peers stayed online", len(digests))
	}

	r := AnalyzeGrid(digests)
	if r.ProbeLiveness < 0.5 || r.ProbeLiveness > 0.9 {
		t.Fatalf("measured liveness %v implausible for 30%% churn", r.ProbeLiveness)
	}
	if !r.AvailabilityAgrees(0.15) {
		t.Fatalf("measured availability %.3f disagrees with Eq.3 prediction %.3f",
			r.MeasuredAvailability, r.PredictedAvailability)
	}
	if r.Eq3Availability < 0 || r.Eq3Availability > 1 {
		t.Fatalf("closed-form Eq.3 = %v", r.Eq3Availability)
	}
}

// TestRenderColumns pins the text of the links, health, traces and metrics
// columns, the lines `pgridctl observe` and the admin port's
// /debug/observe?format=text print; only the CLI knows the community's size
// for the traces' log2(n) bound. The repair column is pinned by
// cmd/pgridnode's TestAdminRepairEndpoint.
func TestRenderColumns(t *testing.T) {
	digest := health.Digest{Addr: 3, Path: "01", Entries: 2, MaxVersion: 7, IndexHash: 0xab, Buddies: 1,
		RefCounts: []int{2, 1}, Liveness: []health.LevelProbe{{Level: 1, Live: 2, Dead: 1}, {Level: 2, Live: 1}}}
	route := trace.Trace{TraceID: 0xff, Key: "01", Found: true, Messages: 1, Spans: []trace.Span{
		{Peer: 2, Path: "0", Level: 0, Ref: 5, LatencyNS: 1500},
		{Peer: 5, Path: "01", Level: 1, Ref: addr.Nil, Matched: true},
	}}
	for _, tc := range []struct {
		name   string
		render func(*strings.Builder)
		want   string
	}{
		{"health with liveness", func(b *strings.Builder) {
			RenderObserve(b, 3, &wire.ObserveResp{Health: &wire.HealthColumn{Digest: digest, Rounds: 5}}, 4, nil)
		},
			"node addr(3) health (5 probe rounds)\n" +
				"  addr(3) path=01 entries=2 maxver=7 hash=00000000000000ab buddies=1 refs=[2 1] liveness=0.75\n" +
				"  level  1 liveness 0.67 (2 live / 1 dead)\n" +
				"  level  2 liveness 1.00 (1 live / 0 dead)\n"},
		{"health before any round", func(b *strings.Builder) { RenderObserve(b, 0, &wire.ObserveResp{Health: &wire.HealthColumn{}}, 4, nil) },
			"node addr(0) health (0 probe rounds)\n" +
				"  addr(0) path=ε entries=0 maxver=0 hash=0000000000000000 buddies=0 refs=[]\n"},
		{"empty recorder", func(b *strings.Builder) {
			RenderObserve(b, 2, &wire.ObserveResp{Traces: &wire.TracesColumn{Total: 7}}, 4, nil)
		},
			"node addr(2) flight recorder: 0 retained (of 7 ever recorded)\n"},
		{"one route", func(b *strings.Builder) {
			RenderObserve(b, 2, &wire.ObserveResp{Traces: &wire.TracesColumn{Total: 9, Traces: []trace.Trace{route}}}, 4, nil)
		},
			"node addr(2) flight recorder: 1 retained (of 9 ever recorded)\n" +
				"  00000000000000ff key 01: addr(2)[0/0] → addr(5)[01/1] ✓ (1 msgs)\n" +
				"route analysis:\n" +
				"traces         1 (1 found)\n" +
				"hops           mean 1.00, p50 1, p95 1, max 1\n" +
				"backtracks     mean 0.00\n" +
				"log2(n) bound  2.00 (measured/predicted 0.50)\n" +
				"per level      level    visits backtracks      latency\n" +
				"               0             1          0        1.5µs\n" +
				"               1             1          0            -\n"},
		{"one route, community size unknown", func(b *strings.Builder) {
			RenderObserve(b, 2, &wire.ObserveResp{Traces: &wire.TracesColumn{Total: 9, Traces: []trace.Trace{route}}}, 0, nil)
		},
			"node addr(2) flight recorder: 1 retained (of 9 ever recorded)\n" +
				"  00000000000000ff key 01: addr(2)[0/0] → addr(5)[01/1] ✓ (1 msgs)\n" +
				"route analysis:\n" +
				"traces         1 (1 found)\n" +
				"hops           mean 1.00, p50 1, p95 1, max 1\n" +
				"backtracks     mean 0.00\n" +
				"per level      level    visits backtracks      latency\n" +
				"               0             1          0        1.5µs\n" +
				"               1             1          0            -\n"},
		{"links", func(b *strings.Builder) {
			RenderObserve(b, 3, &wire.ObserveResp{Links: &wire.InfoResp{Addr: 3, Path: "01", Entries: 2,
				Refs: []wire.RefSet{{Addrs: []addr.Addr{4, 5}}, {Addrs: []addr.Addr{1}}}, Buddies: wire.RefSet{Addrs: []addr.Addr{6}}}}, 4, nil)
		},
			"node addr(3)\n  path     01\n  entries  2\n  buddies  [addr(6)]\n" +
				"  level  1 [addr(4) addr(5)]\n  level  2 [addr(1)]\n"},
		{"metrics, series sorted", func(b *strings.Builder) {
			RenderObserve(b, 3, &wire.ObserveResp{Metrics: &telemetry.MetricsSnapshot{
				Stats: []telemetry.Stat{{Name: "pgrid_query_total", Value: 7}, {Name: "pgrid_exchange_total", Value: 2}}}}, 4, nil)
		},
			"node addr(3) telemetry (2 series)\n" +
				"  pgrid_exchange_total                                     2\n" +
				"  pgrid_query_total                                        7\n"},
	} {
		var b strings.Builder
		tc.render(&b)
		if got := b.String(); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}

// AvailabilityAgrees reports whether the measured availability stays
// within tol of the structural equation-(3) prediction. It fails when no
// probe data exists.
func (r GridReport) AvailabilityAgrees(tol float64) bool {
	if r.MeasuredAvailability < 0 || r.PredictedAvailability < 0 {
		return false
	}
	return math.Abs(r.MeasuredAvailability-r.PredictedAvailability) <= tol
}
