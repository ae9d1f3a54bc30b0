package pgrid

// One benchmark per table and figure of the paper's evaluation, plus
// per-operation micro-benchmarks. The experiment benches run the same code
// as cmd/pgridbench (which prints the paper-layout tables at full scale);
// here each reports its headline numbers as custom benchmark metrics so
// `go test -bench=. -benchmem` regenerates every result in one run.
// Expensive Section 5.2 experiments run at a reduced scale that preserves
// the paper's shape; EXPERIMENTS.md records the full-scale paper-vs-
// measured comparison produced by cmd/pgridbench.

import (
	"math/rand"
	"testing"
	"time"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/experiments"
	"pgrid/internal/sim"
	"pgrid/internal/store"
	"pgrid/internal/trie"
)

// --- Section 5.1: construction cost tables ---------------------------------

func BenchmarkTable1ConstructionVsN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		// Headline: e/N at the endpoints of the recmax=0 and recmax=2
		// series (paper: ≈ 74.6 and ≈ 25.2 at N=1000).
		b.ReportMetric(rows[4].EPerN, "e/N-rec0-N1000")
		b.ReportMetric(rows[9].EPerN, "e/N-rec2-N1000")
	}
}

func BenchmarkTable2ConstructionVsMaxl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		// Headline: growth ratio at maxl=7 (paper: 2.364 without
		// recursion, 1.573 with).
		b.ReportMetric(rows[5].Ratio, "ratio-rec0-maxl7")
		b.ReportMetric(rows[11].Ratio, "ratio-rec2-maxl7")
	}
}

func BenchmarkTable3RecmaxSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		best, bestE := 0, rows[0].Exchanges
		for _, r := range rows {
			if r.Exchanges < bestE {
				bestE = r.Exchanges
				best = r.RecMax
			}
		}
		b.ReportMetric(float64(best), "optimal-recmax") // paper: 2
		b.ReportMetric(rows[0].EPerN, "e/N-rec0")       // paper: 70.87
		b.ReportMetric(rows[2].EPerN, "e/N-rec2")       // paper: 25.47
	}
}

func BenchmarkTable4RefmaxUnbounded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RefmaxSweep(int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		// Paper: e/N grows 25.3 → 125.7 (≈ 5x, "a weakness in the
		// algorithm").
		b.ReportMetric(rows[3].EPerN/rows[0].EPerN, "growth-refmax1to4")
	}
}

func BenchmarkTable5RefmaxBounded(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RefmaxSweep(int64(i+1), 2)
		if err != nil {
			b.Fatal(err)
		}
		// Paper: 23.8 → 43.9 (≈ 1.8x, "the results become very stable").
		b.ReportMetric(rows[3].EPerN/rows[0].EPerN, "growth-refmax1to4")
	}
}

// --- Section 5.2: the big-grid experiments ---------------------------------

// benchFig4Params is the reduced-scale stand-in for the paper's
// 20000-peer, depth-10, refmax-20 grid (which cmd/pgridbench builds at
// full scale): same construction parameters, smaller community.
func benchFig4Params(seed int64) experiments.Fig4Params {
	return experiments.Fig4Params{
		N: 4000, MaxL: 8, RefMax: 10, Threshold: 0.99, Seed: seed,
	}
}

func BenchmarkFig4ReplicaDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchFig4Params(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		// Paper: mean 19.46 replicas at N/2^maxl ≈ 19.5; here the
		// analogous balance point is 4000/256 ≈ 15.6.
		b.ReportMetric(r.MeanReplicas, "mean-replicas")
		b.ReportMetric(r.EPerN, "e/N")
	}
}

func BenchmarkSearchReliability(b *testing.B) {
	r, err := experiments.Fig4(benchFig4Params(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := experiments.SearchReliability(r.Dir, 0.3, 10000, 7, 10, int64(i+2))
		// Paper: success 0.9997, 5.56 messages (refmax 20 at depth 10).
		b.ReportMetric(sr.SuccessRate, "success-rate")
		b.ReportMetric(sr.AvgMessages, "msgs/search")
	}
}

func BenchmarkFig5FindAllReplicas(b *testing.B) {
	r, err := experiments.Fig4(benchFig4Params(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Dir.SampleOnline(rng, 0.3)
		curves := experiments.Fig5(r.Dir, 7, 3, 10, 600, int64(i+3))
		r.Dir.SetAllOnline(true)
		for _, c := range curves {
			// Paper (Fig. 5): breadth-first is "by far superior". With 30 %
			// online, some online replicas are unreachable (their
			// surrounding references are offline), so the curves plateau
			// below 1; compare coverage at two message budgets.
			b.ReportMetric(c.Curve.At(50), "coverage@50-"+c.Strategy.String())
			b.ReportMetric(c.Curve.At(100), "coverage@100-"+c.Strategy.String())
		}
	}
}

func BenchmarkTable6UpdateQueryTradeoff(b *testing.B) {
	r, err := experiments.Fig4(benchFig4Params(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := experiments.Table6Params{
			Updates: 50, QueriesPerKey: 10, OnlineProb: 0.3, KeyLen: 7,
			MajorityMargin: 3, MajorityBudget: 64, Seed: int64(i + 4),
		}
		rows := experiments.Table6(r.Dir, p)
		for _, row := range rows {
			if row.RecBreadth != 2 || row.Repetition != 3 {
				continue
			}
			// Paper at recbreadth=2, repetition=3: repetitive
			// success 1.0 / query cost 17; non-repetitive 0.89 / 5.4.
			tag := "nonrep"
			if row.Repetitive {
				tag = "rep"
			}
			b.ReportMetric(row.SuccessRate, "success-"+tag)
			b.ReportMetric(row.QueryCost, "querycost-"+tag)
		}
	}
}

// --- Section 6 and the Section 4 model --------------------------------------

func BenchmarkSec6BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec6(experiments.Sec6Params{
			Sizes: []int{256, 1024}, RefMax: 2, FloodTTL: 64, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		small, big := rows[0], rows[1]
		// Paper's table: P-Grid O(log N) messages vs server O(N) load —
		// report the growth factors under a 4x community increase.
		b.ReportMetric(big.PGridMsgsPerQuery-small.PGridMsgsPerQuery, "pgrid-msg-delta")
		b.ReportMetric(float64(big.CentralMaxLoad)/float64(small.CentralMaxLoad), "central-load-growth")
		b.ReportMetric(big.FloodMsgsPerQuery/small.FloodMsgsPerQuery, "flood-msg-growth")
	}
}

func BenchmarkEq3ModelVsSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Eq3ModelVsSim(5, 500, int64(i+1))
		worst := 0.0
		for _, r := range rows {
			if d := r.Analytic - r.Measured; d > worst {
				worst = d
			}
		}
		// Eq. 3 is a lower bound; the worst shortfall should be ≈ 0.
		b.ReportMetric(worst, "worst-shortfall")
	}
}

// --- extensions (ablation benches for DESIGN.md design choices) -------------

func BenchmarkExtSkewDataAwareSplitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := experiments.SkewParams{Peers: 200, Items: 2000, MaxL: 10, MinItems: 10, Meetings: 50000, Seed: int64(i + 1)}
		rows := experiments.Skew(p)
		for _, r := range rows {
			if r.Distribution != "hotspot" {
				continue
			}
			tag := "plain"
			if r.DataAware {
				tag = "aware"
			}
			b.ReportMetric(r.LoadGini, "gini-"+tag)
		}
	}
}

func BenchmarkExtMaintenanceUnderChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		without := experiments.Maintenance(480, 4, 6, 5, 0.12, false, int64(i+1))
		with := experiments.Maintenance(480, 4, 6, 5, 0.12, true, int64(i+1))
		b.ReportMetric(without[4].Success, "success-plain")
		b.ReportMetric(with[4].Success, "success-maintained")
		b.ReportMetric(with[4].Alive, "alive-maintained")
	}
}

func BenchmarkExtJoinGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.JoinGrowth(256, 3, 64, 5, 4, int64(i+1))
		b.ReportMetric(rows[0].MeanMeetings, "meetings/join-first")
		b.ReportMetric(rows[2].MeanMeetings, "meetings/join-last")
	}
}

// --- simulator engine throughput --------------------------------------------

// The construction engines are the repository's hottest code path (every
// experiment is built from meetings); these benches report raw meetings/sec
// at a paper-adjacent scale so engine regressions are visible in one number.
// BENCH_construction.json records the same metric from cmd/pgridbench.

func benchEngineOptions(n int, seed int64) sim.Options {
	return sim.Options{
		N:      n,
		Config: core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2},
		Seed:   seed,
	}
}

func BenchmarkBuildMeetingsPerSec(b *testing.B) {
	var meetings int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := sim.Build(benchEngineOptions(5000, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("did not converge: %+v", res)
		}
		meetings += res.Meetings
	}
	b.ReportMetric(float64(meetings)/time.Since(start).Seconds(), "meetings/sec")
}

func BenchmarkBuildConcurrentMeetingsPerSec(b *testing.B) {
	var meetings int64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := sim.BuildConcurrent(benchEngineOptions(5000, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("did not converge: %+v", res)
		}
		meetings += res.Meetings
	}
	b.ReportMetric(float64(meetings)/time.Since(start).Seconds(), "meetings/sec")
}

// --- per-operation micro-benchmarks -----------------------------------------

func benchGrid(b *testing.B, n, depth, refmax int) *directory.Directory {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return trie.BuildIdeal(n, depth, refmax, rng)
}

func BenchmarkQueryOp(b *testing.B) {
	d := benchGrid(b, 4096, 8, 5)
	rng := rand.New(rand.NewSource(2))
	keys := make([]bitpath.Path, 1024)
	for i := range keys {
		keys[i] = bitpath.Random(rng, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.Query(d, d.All()[i%4096], keys[i%1024], rng)
		if !res.Found {
			b.Fatal("query failed on ideal grid")
		}
	}
}

func BenchmarkExchangeOp(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := directory.New(1024)
	cfg := core.Config{MaxL: 8, RefMax: 5, RecMax: 2, RecFanout: 2}
	var m core.Metrics
	sc := core.NewExchangeScratch(cfg, d.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a1, a2 := d.RandomPair(rng)
		core.Exchange(d, cfg, &m, sc, a1, a2, rng)
	}
}

func BenchmarkUpdateOp(b *testing.B) {
	d := benchGrid(b, 2048, 7, 5)
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := store.Entry{Key: bitpath.Random(rng, 6), Name: "x", Holder: 1, Version: uint64(i + 1)}
		core.Update(d, e, 2, 1, rng)
	}
}

func BenchmarkMajorityReadOp(b *testing.B) {
	d := benchGrid(b, 2048, 7, 5)
	rng := rand.New(rand.NewSource(5))
	key := bitpath.Random(rng, 7)
	core.PopulateIndex(d, store.Entry{Key: key, Name: "x", Holder: 1, Version: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := core.MajorityRead(d, key, "x", core.MajorityOptions{Margin: 3}, rng)
		if !res.Found {
			b.Fatal("majority read failed")
		}
	}
}

func BenchmarkReplicaSearchOp(b *testing.B) {
	d := benchGrid(b, 2048, 7, 5)
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ReplicaSearch(d, d.RandomPeer(rng), bitpath.Random(rng, 6), 2, rng)
	}
}

func BenchmarkPublicLookup(b *testing.B) {
	g := BuildIdeal(2048, 7, 5, 7)
	key := HashKey("bench.mp3", 7)
	if _, err := g.Publish(Entry{Key: key, Name: "bench.mp3", Holder: 1}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Lookup(key, "bench.mp3"); err != nil {
			b.Fatal(err)
		}
	}
}
