package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/sim"
	"pgrid/internal/stats"
	"pgrid/internal/trie"
)

// The experiment tests assert the qualitative shape of each paper result
// at reduced scale, so the whole suite stays fast.

func TestTable1LinearInN(t *testing.T) {
	rows, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	// e/N roughly constant within each recmax series: max/min below 2x
	// (the paper's spread is 69.08–79.71 for recmax=0).
	for _, recmax := range []int{0, 2} {
		min, max := 1e18, 0.0
		for _, r := range rows {
			if r.RecMax != recmax {
				continue
			}
			if !r.Converged {
				t.Fatalf("row %+v did not converge", r)
			}
			if r.EPerN < min {
				min = r.EPerN
			}
			if r.EPerN > max {
				max = r.EPerN
			}
		}
		if max/min > 2 {
			t.Errorf("recmax=%d: e/N spread %f–%f not linear-ish", recmax, min, max)
		}
	}
}

func TestTable2ExponentialWithoutRecursion(t *testing.T) {
	rows, err := Table2(2)
	if err != nil {
		t.Fatal(err)
	}
	// recmax=0 series: ratios near 2 (paper: 1.85–2.36); recmax=2 series:
	// clearly damped on average (paper: 1.13–1.62).
	var sum0, sum2 float64
	var n0, n2 int
	for _, r := range rows {
		if r.Ratio == 0 {
			continue
		}
		if r.RecMax == 0 {
			sum0 += r.Ratio
			n0++
		} else {
			sum2 += r.Ratio
			n2++
		}
	}
	avg0, avg2 := sum0/float64(n0), sum2/float64(n2)
	if avg0 < 1.6 || avg0 > 2.6 {
		t.Errorf("recmax=0 mean growth ratio = %v, want ≈ 2", avg0)
	}
	if avg2 >= avg0 {
		t.Errorf("recursion did not damp growth: %v vs %v", avg2, avg0)
	}
}

func TestTable3OptimumNearTwo(t *testing.T) {
	rows, err := Table3(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	best, bestE := -1, int64(1<<62)
	for _, r := range rows {
		if r.Exchanges < bestE {
			bestE = r.Exchanges
			best = r.RecMax
		}
	}
	// Paper finds the optimum at 2; accept 1–3 (it is a shallow optimum
	// under different seeds), but recmax=0 must never win.
	if best < 1 || best > 3 {
		t.Errorf("optimal recmax = %d, want in [1,3]", best)
	}
	if rows[0].Exchanges <= bestE {
		t.Error("recmax=0 outperformed recursion")
	}
}

func TestRefmaxSweepBoundedVsUnbounded(t *testing.T) {
	unbounded, err := RefmaxSweep(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := RefmaxSweep(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded: strong growth from refmax 1 → 4 (paper: 5x).
	if g := float64(unbounded[3].Exchanges) / float64(unbounded[0].Exchanges); g < 3 {
		t.Errorf("unbounded growth = %.2fx, want ≥ 3x", g)
	}
	// Bounded: flat-ish (paper: 1.8x).
	if g := float64(bounded[3].Exchanges) / float64(bounded[0].Exchanges); g > 2.5 {
		t.Errorf("bounded growth = %.2fx, want ≤ 2.5x", g)
	}
	// And at refmax=4 bounded must beat unbounded clearly.
	if bounded[3].Exchanges*2 > unbounded[3].Exchanges {
		t.Errorf("bounded %d vs unbounded %d at refmax=4: fix ineffective",
			bounded[3].Exchanges, unbounded[3].Exchanges)
	}
}

func smallFig4Params() Fig4Params {
	return Fig4Params{N: 2000, MaxL: 6, RefMax: 10, Threshold: 0.99, Seed: 5}
}

func TestFig4ReplicaDistribution(t *testing.T) {
	r, err := Fig4(smallFig4Params())
	if err != nil {
		t.Fatal(err)
	}
	// 2000 peers over 64 leaves → ≈ 31 replicas per leaf on a converged
	// grid; the distribution must be unimodal-ish around that.
	if r.MeanReplicas < 15 || r.MeanReplicas > 40 {
		t.Errorf("mean replicas = %v, want near 2000/64", r.MeanReplicas)
	}
	if r.Histogram.Total() != 2000 {
		t.Errorf("histogram total = %d", r.Histogram.Total())
	}
	if err := r.Dir.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFig4Deterministic builds the Section 5.2 grid twice: the same
// parameters must give the same grid at any GOMAXPROCS, or the archive and
// the single-seed thresholds above judge a schedule instead of a grid.
func TestFig4Deterministic(t *testing.T) {
	a, err := Fig4(smallFig4Params())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig4(smallFig4Params())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Histogram.Buckets(), b.Histogram.Buckets()) ||
		a.Exchanges != b.Exchanges || a.AvgPathLen != b.AvgPathLen {
		t.Errorf("two builds differ: e=%d/%d, avg depth %v/%v, buckets\n%v\n%v",
			a.Exchanges, b.Exchanges, a.AvgPathLen, b.AvgPathLen, a.Histogram.Buckets(), b.Histogram.Buckets())
	}
}

// TestFig4ResultJSON: the -json row of Fig. 4 is the histogram's buckets
// and the scalars, not the directory.
func TestFig4ResultJSON(t *testing.T) {
	h := stats.NewHistogram()
	h.Observe(5)
	h.Observe(5)
	h.Observe(7)
	buf, err := json.Marshal(Fig4Result{Dir: directory.New(3), Histogram: h, Exchanges: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"Histogram":[{"Value":5,"Count":2},{"Value":7,"Count":1}],"MeanReplicas":0,"Exchanges":9,"EPerN":0,"AvgPathLen":0}`
	if string(buf) != want {
		t.Errorf("json = %s\nwant   %s", buf, want)
	}
}

func TestSearchReliabilityOnBuiltGrid(t *testing.T) {
	r, err := Fig4(smallFig4Params())
	if err != nil {
		t.Fatal(err)
	}
	sr := SearchReliability(r.Dir, 0.3, 2000, 5, 10, 6)
	// Eq. 3 at refmax=10, depth 5 gives ≈ 0.87 as a worst-case bound; the
	// measured rate must sit above it (backtracking helps). The paper's
	// 0.9997 needs refmax=20, exercised by the full-scale bench.
	if sr.SuccessRate < sr.Analytic {
		t.Errorf("success rate %v below eq.3 bound %v", sr.SuccessRate, sr.Analytic)
	}
	if sr.SuccessRate < 0.85 {
		t.Errorf("success rate = %v, want ≥ 0.85", sr.SuccessRate)
	}
	if sr.AvgMessages <= 0 || sr.AvgMessages > 10 {
		t.Errorf("avg messages = %v", sr.AvgMessages)
	}
	// Online flags restored.
	if r.Dir.OnlineCount() != r.Dir.N() {
		t.Error("SearchReliability did not restore online state")
	}
}

func TestEq3MeasuredAtLeastAnalytic(t *testing.T) {
	rows := Eq3ModelVsSim(4, 400, 7)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		// Eq. 3 is a worst-case bound (it ignores backtracking and the
		// chance that the entry peer is already responsible), so measured
		// success must not fall meaningfully below it.
		if r.Measured < r.Analytic-0.08 {
			t.Errorf("p=%v refmax=%d: measured %v below analytic %v",
				r.OnlineProb, r.RefMax, r.Measured, r.Analytic)
		}
	}
}

func TestFig5BreadthFirstWins(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := trie.BuildIdeal(1024, 6, 5, rng)
	d.SampleOnline(rng, 0.5)
	defer d.SetAllOnline(true)
	curves := Fig5(d, 5, 3, 10, 600, 8)
	if len(curves) != 3 {
		t.Fatalf("curves = %d", len(curves))
	}
	byStrategy := map[core.Strategy]Fig5Curve{}
	for _, c := range curves {
		byStrategy[c.Strategy] = c
		// Coverage curves are monotone non-decreasing in [0,1].
		prev := 0.0
		for _, pt := range c.Curve.Points {
			if pt.Y < prev-1e-9 || pt.Y > 1+1e-9 {
				t.Errorf("%v: non-monotone curve point %+v", c.Strategy, pt)
			}
			prev = pt.Y
		}
	}
	// The paper's finding: breadth-first search reaches high coverage with
	// far fewer messages than repeated depth-first searches — where BFS
	// first covers 90 %, DFS has not yet.
	bfs, dfs := byStrategy[core.BreadthFirst].Curve, byStrategy[core.RepeatedDFS].Curve
	i := slices.IndexFunc(bfs.Points, func(p stats.Point) bool { return p.Y >= 0.9 })
	if i < 0 || dfs.At(bfs.Points[i].X) >= 0.9 {
		t.Errorf("messages to 90%% coverage: BFS does not beat DFS (BFS %+v, DFS %+v)", bfs.Points, dfs.Points)
	}
}

func TestTable6Shape(t *testing.T) {
	// Build a modest grid via construction, then check the tradeoff shape.
	// Sequential Build: the concurrent engine's grid depends on the
	// schedule (Workers defaults to GOMAXPROCS), and the thresholds below
	// are single-seed statistics.
	res, err := sim.Build(sim.Options{
		N:      2000,
		Config: core.Config{MaxL: 6, RefMax: 10, RecMax: 2, RecFanout: 2},
		Seed:   9,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Table6Params{
		Updates: 30, QueriesPerKey: 5, OnlineProb: 0.3, KeyLen: 5,
		MajorityMargin: 3, MajorityBudget: 64, Seed: 9,
	}
	rows := Table6(res.Dir, p)
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	get := func(rep bool, rb, n int) Table6Row {
		for _, r := range rows {
			if r.Repetitive == rep && r.RecBreadth == rb && r.Repetition == n {
				return r
			}
		}
		t.Fatalf("row %v/%d/%d missing", rep, rb, n)
		return Table6Row{}
	}
	// Repetitive reads dominate non-repetitive reads cell by cell, and
	// reach near-perfect reliability once the update covers a solid
	// majority (repetition ≥ 2). At repetition 1 the majority premise
	// ("more than half of the replicas are correct") can fail for some
	// keys, so only a weaker bound holds there.
	for _, rb := range []int{2, 3} {
		for _, rep := range []int{1, 2, 3} {
			r, nr := get(true, rb, rep), get(false, rb, rep)
			if r.SuccessRate < nr.SuccessRate-0.02 {
				t.Errorf("repetitive %d/%d (%v) below non-repetitive (%v)",
					rb, rep, r.SuccessRate, nr.SuccessRate)
			}
			if rep >= 2 && r.SuccessRate < 0.97 {
				t.Errorf("repetitive %d/%d success = %v", rb, rep, r.SuccessRate)
			}
			if rep == 1 && r.SuccessRate < 0.8 {
				t.Errorf("repetitive %d/%d success = %v", rb, rep, r.SuccessRate)
			}
		}
	}
	// Non-repetitive: success improves with repetition, never reaches the
	// repetitive protocol's level at repetition 1.
	nr1 := get(false, 2, 1)
	nr3 := get(false, 2, 3)
	if nr3.SuccessRate < nr1.SuccessRate {
		t.Errorf("more update repetitions reduced success: %v → %v", nr1.SuccessRate, nr3.SuccessRate)
	}
	if nr1.SuccessRate > 0.999 {
		t.Errorf("non-repetitive with 1 pass already at %v: experiment not discriminating", nr1.SuccessRate)
	}
	// Insertion cost grows with both recbreadth and repetition.
	if a, b := get(false, 2, 1).InsertionCost, get(false, 3, 1).InsertionCost; b <= a {
		t.Errorf("recbreadth 3 not costlier than 2: %v vs %v", a, b)
	}
	if a, b := get(false, 2, 1).InsertionCost, get(false, 2, 3).InsertionCost; b <= a {
		t.Errorf("repetition 3 not costlier than 1: %v vs %v", a, b)
	}
	// Non-repetitive query cost stays near one DFS (paper ≈ 5.5);
	// repetitive costs more per read.
	if q := get(false, 2, 1).QueryCost; q > 15 {
		t.Errorf("non-repetitive query cost = %v", q)
	}
	if get(true, 2, 1).QueryCost <= get(false, 2, 1).QueryCost {
		t.Error("repetitive reads not costlier than single reads")
	}
}

func TestSec6Scaling(t *testing.T) {
	rows, err := Sec6(Sec6Params{Sizes: []int{256, 1024}, RefMax: 2, FloodTTL: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	small, big := rows[0], rows[1]
	// Central storage O(D): grows ~4x.
	if g := float64(big.CentralStorage) / float64(small.CentralStorage); g < 3 {
		t.Errorf("central storage growth = %v", g)
	}
	// Central load O(N): grows ~4x.
	if g := float64(big.CentralMaxLoad) / float64(small.CentralMaxLoad); g < 3 {
		t.Errorf("central load growth = %v", g)
	}
	// Flooding messages O(N): grows ~4x.
	if g := big.FloodMsgsPerQuery / small.FloodMsgsPerQuery; g < 2.5 {
		t.Errorf("flood message growth = %v", g)
	}
	// P-Grid messages O(log N): grows by at most ~2 extra hops.
	if big.PGridMsgsPerQuery > small.PGridMsgsPerQuery+3 {
		t.Errorf("pgrid messages grew too fast: %v → %v",
			small.PGridMsgsPerQuery, big.PGridMsgsPerQuery)
	}
	// P-Grid storage O(log D): grows by ≈ refmax·Δdepth, not 4x.
	if big.PGridStoragePerPeer > small.PGridStoragePerPeer*2 {
		t.Errorf("pgrid storage grew too fast: %v → %v",
			small.PGridStoragePerPeer, big.PGridStoragePerPeer)
	}
	// Everyone answers reliably when online.
	if small.PGridSuccess < 0.99 || small.FloodSuccess < 0.9 {
		t.Errorf("success rates: pgrid %v flood %v", small.PGridSuccess, small.FloodSuccess)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	RenderConstruction(&buf, "Table 1", []ConstructionRow{{N: 200, MaxL: 6, RefMax: 1, Exchanges: 100, EPerN: 0.5, Converged: true}})
	RenderTable2(&buf, []Table2Row{{ConstructionRow: ConstructionRow{MaxL: 2, Exchanges: 10}, Ratio: 0}, {ConstructionRow: ConstructionRow{MaxL: 3, Exchanges: 20}, Ratio: 2}})
	RenderTable6(&buf, []Table6Row{{Repetitive: true, RecBreadth: 2, Repetition: 1, SuccessRate: 1, QueryCost: 17, InsertionCost: 224}})
	RenderSec6(&buf, []Sec6Row{{N: 256, D: 256}})
	RenderEq3(&buf, []Eq3Row{{OnlineProb: 0.3, RefMax: 20, Depth: 10, Analytic: 0.992, Measured: 0.997}})
	RenderSearchReliability(&buf, SearchReliabilityResult{Queries: 10, SuccessRate: 1})
	out := buf.String()
	for _, want := range []string{"Table 1", "ratio", "recbreadth", "central-store", "analytic"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}
