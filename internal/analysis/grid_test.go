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
