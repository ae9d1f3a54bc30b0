package experiments

import (
	"fmt"
	"math/rand"

	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/sim"
	"pgrid/internal/stats"
	"pgrid/internal/trie"
)

// Fig4Params sizes the Section 5.2 grid. Paper values: N=20000, MaxL=10,
// RefMax=20, Threshold 0.943 (the paper stopped at average depth 9.43
// after 10 h of Mathematica time; pass 0.99 for a fully converged grid).
type Fig4Params struct {
	N         int
	MaxL      int
	RefMax    int
	Threshold float64
	Seed      int64
}

// PaperFig4Params returns the exact Section 5.2 configuration.
func PaperFig4Params() Fig4Params {
	return Fig4Params{N: 20000, MaxL: 10, RefMax: 20, Threshold: 0.943, Seed: 1}
}

// Fig4Result is the replica-distribution measurement of Fig. 4.
type Fig4Result struct {
	Dir *directory.Directory `json:"-"`
	// Histogram maps replication factor → number of peers whose replica
	// group has that size (the paper's x/y axes).
	Histogram *stats.Histogram
	// MeanReplicas is the average replica-group size over peers
	// (paper: 19.46).
	MeanReplicas float64
	Exchanges    int64
	EPerN        float64
	AvgPathLen   float64
}

// Fig4 builds the Section 5.2 grid and measures the replica distribution:
// for every peer, the number of peers responsible for the same path. The
// build is sequential so the grid is a function of p alone: the concurrent
// engine's grid depends on its worker count, and every Section 5.2 figure
// measures this one grid.
func Fig4(p Fig4Params) (Fig4Result, error) {
	res, err := sim.Build(sim.Options{
		N:         p.N,
		Config:    core.Config{MaxL: p.MaxL, RefMax: p.RefMax, RecMax: 2, RecFanout: 2},
		Threshold: p.Threshold,
		Seed:      p.Seed,
	})
	if err != nil {
		return Fig4Result{}, fmt.Errorf("fig4: %w", err)
	}
	out := Fig4Result{
		Dir:        res.Dir,
		Histogram:  stats.NewHistogram(),
		Exchanges:  res.Exchanges,
		EPerN:      float64(res.Exchanges) / float64(p.N),
		AvgPathLen: res.AvgPathLen,
	}
	groups := res.Dir.ReplicaGroups()
	for _, g := range groups {
		// One histogram observation per peer, as in the paper ("number of
		// peers that have this replication factor").
		for range g {
			out.Histogram.Observe(len(g))
		}
	}
	out.MeanReplicas = out.Histogram.Mean()
	return out, nil
}

// SearchReliabilityResult is the Section 5.2 search experiment output.
type SearchReliabilityResult struct {
	Queries     int
	SuccessRate float64 // paper: 0.9997
	AvgMessages float64 // paper: 5.5576, over successful searches
	// Analytic is equation (3) at the same parameters, for comparison.
	Analytic float64
}

// SearchReliability measures search success over a built grid: `queries`
// depth-first searches for uniform random keys of length keyLen, with each
// peer online with probability onlineProb (resampled once, then searches
// run against that epoch; entry points are random online peers).
func SearchReliability(d *directory.Directory, onlineProb float64, queries, keyLen, refmax int, seed int64) SearchReliabilityResult {
	rng := rand.New(rand.NewSource(seed))
	d.SampleOnline(rng, onlineProb)
	defer d.SetAllOnline(true)

	out := SearchReliabilityResult{
		Queries:  queries,
		Analytic: analysis.SuccessProbability(onlineProb, refmax, keyLen),
	}
	succ, msgs := 0, 0
	for i := 0; i < queries; i++ {
		key := bitpath.Random(rng, keyLen)
		start := d.RandomOnlinePeer(rng)
		if start == nil {
			continue
		}
		res := core.Query(d, start, key, rng)
		if res.Found {
			succ++
			msgs += res.Messages
		}
	}
	out.SuccessRate = float64(succ) / float64(queries)
	if succ > 0 {
		out.AvgMessages = float64(msgs) / float64(succ)
	}
	return out
}

// Eq3Row compares the analytic success probability of equation (3) with
// the measured success rate on an ideal grid at the same parameters.
type Eq3Row struct {
	OnlineProb float64
	RefMax     int
	Depth      int
	Analytic   float64
	Measured   float64
}

// Eq3ModelVsSim validates Section 4's equation (3) against simulation on
// ideal grids (BuildIdeal isolates the formula from construction noise).
// For each (p, refmax) it measures the success rate of `queries` searches
// for full-depth keys.
func Eq3ModelVsSim(depth, queries int, seed int64) []Eq3Row {
	rng := rand.New(rand.NewSource(seed))
	var rows []Eq3Row
	for _, refmax := range []int{1, 2, 5, 10, 20} {
		// Enough peers that every leaf has ≥ refmax replicas, so reference
		// sets are full.
		n := (1 << uint(depth)) * (refmax + 2)
		d := trie.BuildIdeal(n, depth, refmax, rng)
		for _, p := range []float64{0.2, 0.3, 0.5, 0.8} {
			d.SampleOnline(rng, p)
			succ := 0
			for i := 0; i < queries; i++ {
				key := bitpath.Random(rng, depth)
				start := d.RandomOnlinePeer(rng)
				if start == nil {
					continue
				}
				if core.Query(d, start, key, rng).Found {
					succ++
				}
			}
			rows = append(rows, Eq3Row{
				OnlineProb: p,
				RefMax:     refmax,
				Depth:      depth,
				Analytic:   analysis.SuccessProbability(p, refmax, depth),
				Measured:   float64(succ) / float64(queries),
			})
		}
		d.SetAllOnline(true)
	}
	return rows
}
