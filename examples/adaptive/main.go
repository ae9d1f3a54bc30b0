// Adaptive demonstrates the skew extension (the paper's Section 6 future
// work): when keys concentrate in one region of the space, data-aware
// splitting — the paper's own Section 3 suggestion of stopping splits when
// a region's item count falls below a threshold — lets the trie grow deep
// where the data is and stay shallow (and replicated) where it is not.
//
// The demo builds the same skewed catalog twice, with plain and data-aware
// splitting, prints both responsibility tries for a small community, and
// compares the per-peer index load.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/stats"
	"pgrid/internal/store"
	"pgrid/internal/trie"
	"pgrid/internal/workload"
)

func main() {
	log.SetFlags(0)
	const (
		peers    = 24
		items    = 600
		maxl     = 8
		minItems = 12
		meetings = 40000
		seed     = 5
	)

	fmt.Printf("%d peers, %d items, 85%% of keys under prefix 00\n\n", peers, items)
	for _, aware := range []bool{false, true} {
		mode := "plain splitting (depth bounded only by maxl)"
		cfg := core.Config{MaxL: maxl, RefMax: 3, RecMax: 2, RecFanout: 2}
		if aware {
			mode = fmt.Sprintf("data-aware splitting (split only while a region holds ≥ %d items)", minItems)
			cfg.SplitMinItems = minItems
		}

		rng := rand.New(rand.NewSource(seed))
		keys := workload.HotspotKeys(rng, items, maxl+4, bitpath.MustParse("00"), 0.85)
		d := directory.New(peers)
		entries := make([]store.Entry, len(keys))
		for i, k := range keys {
			holder := d.RandomPeer(rng)
			entries[i] = store.Entry{Key: k, Name: fmt.Sprintf("item-%d", i), Holder: holder.Addr(), Version: 1}
			holder.Store().Apply(entries[i])
		}
		var m core.Metrics
		sc := core.NewExchangeScratch(cfg, peers)
		for i := 0; i < meetings; i++ {
			a1, a2 := d.RandomPair(rng)
			core.Exchange(d, cfg, &m, sc, a1, a2, rng)
		}
		for _, e := range entries {
			core.Insert(d, e, cfg.RefMax, rng)
		}

		loads := make([]float64, peers)
		for i, p := range d.All() {
			loads[i] = float64(p.Store().Len())
		}
		sum := stats.Summarize(loads)

		fmt.Printf("=== %s ===\n", mode)
		fmt.Print(trie.FromDirectory(d).Render())
		fmt.Printf("index entries per peer: mean %.1f, max %.0f, gini %.3f\n\n",
			sum.Mean, sum.Max, stats.Gini(loads))
	}
	fmt.Println("with the gate, the hot 00 subtree splits deep while cold regions")
	fmt.Println("keep shallow, replicated paths — depth follows the data.")
}
