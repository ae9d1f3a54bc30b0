package analysis_test

import (
	"math/rand"
	"strings"
	"testing"

	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/sim"
	"pgrid/internal/trace"
)

func TestAnalyzeTracesAggregation(t *testing.T) {
	traces := []trace.Trace{
		{
			TraceID: 1, Found: true, Messages: 2, Backtracks: 1,
			Spans: []trace.Span{
				{Level: 0, LatencyNS: 100, Backtracked: true},
				{Level: 1, LatencyNS: 60},
				{Level: 2, LatencyNS: 40, Matched: true},
			},
		},
		{
			TraceID: 2, Found: true, Messages: 4, Backtracks: 0,
			Spans: []trace.Span{
				{Level: 0, LatencyNS: 200},
				{Level: 2, LatencyNS: 80, Matched: true},
			},
		},
		{TraceID: 3, Found: false, Messages: 0, Backtracks: 3,
			Spans: []trace.Span{{Level: 0, LatencyNS: 300, Backtracked: true}}},
	}
	r := analysis.AnalyzeTraces(traces, 64)

	if r.Traces != 3 || r.Found != 2 {
		t.Fatalf("traces=%d found=%d", r.Traces, r.Found)
	}
	if want := 2.0; r.MeanHops != want {
		t.Errorf("MeanHops = %v, want %v", r.MeanHops, want)
	}
	if r.P50Hops != 2 || r.MaxHops != 4 {
		t.Errorf("p50=%d max=%d", r.P50Hops, r.MaxHops)
	}
	if want := 4.0 / 3; r.MeanBacktracks != want {
		t.Errorf("MeanBacktracks = %v, want %v", r.MeanBacktracks, want)
	}
	if r.PredictedHops != 6 {
		t.Errorf("PredictedHops = %v, want 6 (log2 64)", r.PredictedHops)
	}
	if len(r.PerLevel) != 3 {
		t.Fatalf("PerLevel = %+v", r.PerLevel)
	}
	l0 := r.PerLevel[0]
	if l0.Level != 0 || l0.Visits != 3 || l0.Backtracks != 2 || l0.MeanLatencyNS != 200 {
		t.Errorf("level 0 = %+v", l0)
	}
	if l2 := r.PerLevel[2]; l2.Level != 2 || l2.Visits != 2 || l2.MeanLatencyNS != 60 {
		t.Errorf("level 2 = %+v", l2)
	}

	if !r.WithinLogN(0.0) {
		t.Error("2 mean hops rejected against a log2(64)=6 bound")
	}
	if (analysis.TraceReport{}).WithinLogN(1) {
		t.Error("empty report accepted")
	}

	var sb strings.Builder
	analysis.RenderTraceReport(&sb, r)
	for _, want := range []string{"traces         3 (2 found)", "log2(n) bound  6.00", "per level"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestSimulatorTracesMatchLogN is the acceptance check: on a seeded
// 64-peer simulator build, routes collected via QueryTraced must produce
// a per-level hop report whose measured mean stays within tolerance of the paper's O(log n) prediction.
func TestSimulatorTracesMatchLogN(t *testing.T) {
	const n = 64
	res, err := sim.Build(sim.Options{
		N:      n,
		Config: core.Config{MaxL: 6, RefMax: 3, RecMax: 2, RecFanout: 2},
		Seed:   7,
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	var traces []trace.Trace
	for i := 0; i < 300; i++ {
		key := bitpath.Random(rng, 6)
		tr := core.QueryTraced(res.Dir, res.Dir.RandomOnlinePeer(rng), key, rng)
		tr.TraceID = trace.NewTraceID(rng.Uint64(), uint64(i))
		traces = append(traces, tr)
	}

	r := analysis.AnalyzeTraces(traces, n)
	if r.Found != r.Traces {
		t.Fatalf("only %d/%d searches found a peer on a fully-online grid", r.Found, r.Traces)
	}
	// All peers online: greedy prefix routing should resolve roughly one
	// bit per hop, so the mean hop count must sit within the O(log n)
	// bound (tolerance 25%) and must not be degenerately low either.
	if !r.WithinLogN(0.25) {
		t.Errorf("mean hops %.2f exceeds log2(%d)=%.2f by more than 25%%", r.MeanHops, n, r.PredictedHops)
	}
	if r.MeanHops < 0.5 {
		t.Errorf("mean hops %.2f suspiciously low — routes are not being recorded", r.MeanHops)
	}
	if len(r.PerLevel) == 0 {
		t.Fatal("no per-level breakdown")
	}
	// Level 0 collects at least the entry hop of every trace (plus any
	// forward that resolved no bits yet).
	if r.PerLevel[0].Level != 0 || r.PerLevel[0].Visits < len(traces) {
		t.Errorf("level-0 visits = %+v, want at least one per trace", r.PerLevel[0])
	}
}
