package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/stats"
)

// RoutingLoadResult validates the paper's "equally for all peers" claim:
// the introduction promises that P-Grids "scale gracefully … equally for
// all peers, both with respect to storage and communication cost". Storage
// balance is covered by the skew experiment's uniform row; this experiment
// measures communication balance — how evenly query routing work spreads
// over the community.
type RoutingLoadResult struct {
	Queries int
	// Gini of per-peer handled messages (0 = perfectly even).
	Gini float64
	// MaxMeanRatio is the busiest peer's load over the mean.
	MaxMeanRatio float64
	// TopShare is the fraction of all routing work done by the busiest 1%
	// of peers (the central server's value is 1.0 by construction).
	TopShare float64
	// Summary of per-peer loads.
	Summary stats.Summary
}

// RoutingLoad runs `queries` traced searches for uniform random keys from
// random entry points over a built grid and attributes one unit of work to
// every peer that handled the query (entry, forwarders, responder).
func RoutingLoad(d *directory.Directory, keyLen, queries int, seed int64) RoutingLoadResult {
	rng := rand.New(rand.NewSource(seed))
	load := make(map[addr.Addr]int)
	for i := 0; i < queries; i++ {
		start := d.RandomOnlinePeer(rng)
		if start == nil {
			break
		}
		tr := core.QueryTraced(d, start, bitpath.Random(rng, keyLen), rng)
		for _, h := range tr.Spans {
			load[h.Peer]++
		}
	}
	loads := make([]float64, 0, d.N())
	var total, max float64
	for _, p := range d.All() {
		l := float64(load[p.Addr()])
		loads = append(loads, l)
		total += l
		if l > max {
			max = l
		}
	}
	res := RoutingLoadResult{
		Queries: queries,
		Gini:    stats.Gini(loads),
		Summary: stats.Summarize(loads),
	}
	if mean := total / float64(d.N()); mean > 0 {
		res.MaxMeanRatio = max / mean
	}
	// Share of the busiest 1% (at least one peer).
	k := d.N() / 100
	if k < 1 {
		k = 1
	}
	sorted := append([]float64(nil), loads...)
	for i := 0; i < k; i++ { // selection of top k (k is tiny)
		maxIdx := i
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[maxIdx] {
				maxIdx = j
			}
		}
		sorted[i], sorted[maxIdx] = sorted[maxIdx], sorted[i]
	}
	topSum := 0.0
	for i := 0; i < k; i++ {
		topSum += sorted[i]
	}
	if total > 0 {
		res.TopShare = topSum / total
	}
	return res
}

// RenderRoutingLoad prints the balance measurement.
func RenderRoutingLoad(w io.Writer, r RoutingLoadResult) {
	fmt.Fprintln(w, "Routing load balance — per-peer share of query handling")
	fmt.Fprintf(w, "queries %d: gini %.3f, max/mean %.1f, busiest 1%% of peers handle %.1f%% of work\n",
		r.Queries, r.Gini, r.MaxMeanRatio, 100*r.TopShare)
	fmt.Fprintf(w, "per-peer load: %s\n\n", r.Summary)
}
