package analysis

import (
	"fmt"
	"io"
	"math"
	"sort"

	"pgrid/internal/trace"
)

// LevelCost aggregates the spans observed at one resolution level: how
// often searches arrived at a hop having already resolved Level key
// bits, how often those hops had to backtrack, and how long they took.
type LevelCost struct {
	// Level is the absolute number of key bits resolved on arrival.
	Level int
	// Visits is the number of spans recorded at this level.
	Visits int
	// Backtracks is the number of those spans that abandoned at least
	// one contacted subtree.
	Backtracks int
	// MeanLatencyNS is the mean wall latency of the level's spans
	// (0 for simulator traces, which carry no timing).
	MeanLatencyNS float64
}

// TraceReport is the aggregate view over a set of collected traces —
// the same report for simulator routes (core.Trace.ToTrace) and routes
// scraped off real nodes (KindObserve), so the two are directly
// comparable.
type TraceReport struct {
	// Traces is the number of traces aggregated; Found how many of them
	// reached a responsible peer.
	Traces int
	Found  int
	// MeanHops, P50Hops, P95Hops and MaxHops describe the distribution
	// of per-search message counts (successful peer contacts).
	MeanHops float64
	P50Hops  int
	P95Hops  int
	MaxHops  int
	// MeanBacktracks is the mean number of abandoned subtrees per search.
	MeanBacktracks float64
	// PredictedHops is the paper's O(log n) search-cost expectation,
	// log2(nPeers): greedy prefix routing resolves about one bit per hop
	// over a grid whose depth is the binary log of the community size.
	PredictedHops float64
	// PerLevel breaks the spans down by resolution level, ascending.
	PerLevel []LevelCost
}

// AnalyzeTraces aggregates collected traces into hop/backtrack/latency
// distributions and the per-level span breakdown, with the O(log n)
// prediction for a community of nPeers attached for comparison.
func AnalyzeTraces(traces []trace.Trace, nPeers int) TraceReport {
	r := TraceReport{Traces: len(traces)}
	if nPeers > 0 {
		r.PredictedHops = math.Log2(float64(nPeers))
	}
	if len(traces) == 0 {
		return r
	}

	hops := make([]int, 0, len(traces))
	backtracks := 0
	levels := map[int]*LevelCost{}
	for _, t := range traces {
		if t.Found {
			r.Found++
		}
		hops = append(hops, t.Messages)
		backtracks += t.Backtracks
		for _, s := range t.Spans {
			lc := levels[s.Level]
			if lc == nil {
				lc = &LevelCost{Level: s.Level}
				levels[s.Level] = lc
			}
			lc.Visits++
			if s.Backtracked {
				lc.Backtracks++
			}
			lc.MeanLatencyNS += float64(s.LatencyNS) // sum for now, divided below
		}
	}

	sort.Ints(hops)
	sum := 0
	for _, h := range hops {
		sum += h
	}
	r.MeanHops = float64(sum) / float64(len(hops))
	r.P50Hops = hops[len(hops)/2]
	r.P95Hops = hops[(len(hops)*95)/100]
	r.MaxHops = hops[len(hops)-1]
	r.MeanBacktracks = float64(backtracks) / float64(len(traces))

	for _, lc := range levels {
		lc.MeanLatencyNS /= float64(lc.Visits)
		r.PerLevel = append(r.PerLevel, *lc)
	}
	sort.Slice(r.PerLevel, func(i, j int) bool { return r.PerLevel[i].Level < r.PerLevel[j].Level })
	return r
}

// RenderTraceReport writes the report as the text table pgridsim and
// pgridctl print.
func RenderTraceReport(w io.Writer, r TraceReport) {
	fmt.Fprintf(w, "traces         %d (%d found)\n", r.Traces, r.Found)
	fmt.Fprintf(w, "hops           mean %.2f, p50 %d, p95 %d, max %d\n",
		r.MeanHops, r.P50Hops, r.P95Hops, r.MaxHops)
	fmt.Fprintf(w, "backtracks     mean %.2f\n", r.MeanBacktracks)
	if r.PredictedHops > 0 {
		fmt.Fprintf(w, "log2(n) bound  %.2f (measured/predicted %.2f)\n",
			r.PredictedHops, r.MeanHops/r.PredictedHops)
	}
	if len(r.PerLevel) > 0 {
		fmt.Fprintf(w, "per level      %-6s %8s %10s %12s\n", "level", "visits", "backtracks", "latency")
		for _, lc := range r.PerLevel {
			fmt.Fprintf(w, "               %-6d %8d %10d %12s\n",
				lc.Level, lc.Visits, lc.Backtracks, fmtLatency(lc.MeanLatencyNS))
		}
	}
}

func fmtLatency(ns float64) string {
	switch {
	case ns <= 0:
		return "-"
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.2fms", ns/1e6)
	}
}
