package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/sim"
	"pgrid/internal/store"
)

// AntiEntropyRow tracks replica-index consistency over gossip rounds: when
// replicas of the same region meet, they reconcile their indexes (the
// anti-entropy built into the exchange's buddy case). After a batch of
// partial updates, continued background gossip must drive the fraction of
// up-to-date replicas toward 1 without any further update traffic.
type AntiEntropyRow struct {
	Round int
	// Fresh is the fraction of (key, covering-peer) pairs holding the
	// latest version.
	Fresh float64
	// Exchanges is the cumulative gossip exchanges since the updates.
	Exchanges int64
}

// AntiEntropy builds a grid, installs version 1 of `keys` items everywhere,
// applies version 2 with deliberately weak propagation (recbreadth 1, one
// pass), then measures freshness after each round of background gossip
// (n random meetings per round).
func AntiEntropy(n, maxl, keys, rounds int, seed int64) ([]AntiEntropyRow, error) {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.Config{MaxL: maxl, RefMax: 5, RecMax: 2, RecFanout: 2}
	res, err := sim.Build(sim.Options{N: n, Config: cfg, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("antientropy: %w", err)
	}
	d := res.Dir

	type item struct {
		key  bitpath.Path
		name string
	}
	items := make([]item, keys)
	for i := range items {
		items[i] = item{key: bitpath.Random(rng, maxl-1), name: fmt.Sprintf("doc-%d", i)}
		core.PopulateIndex(d, store.Entry{Key: items[i].key, Name: items[i].name, Holder: 1, Version: 1})
		// Deliberately weak update: one narrow pass reaches few replicas.
		core.Update(d, store.Entry{Key: items[i].key, Name: items[i].name, Holder: 2, Version: 2}, 1, 1, rng)
	}

	freshness := func() float64 {
		fresh, total := 0, 0
		for _, it := range items {
			for _, a := range d.Covering(it.key) {
				total++
				if e, ok := d.Peer(a).Store().Get(it.key, it.name); ok && e.Version == 2 {
					fresh++
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(fresh) / float64(total)
	}

	var m core.Metrics
	sc := core.NewExchangeScratch(cfg, n)
	rows := []AntiEntropyRow{{Round: 0, Fresh: freshness()}}
	for round := 1; round <= rounds; round++ {
		for i := 0; i < n; i++ {
			a1, a2 := d.RandomPair(rng)
			core.Exchange(d, cfg, &m, sc, a1, a2, rng)
		}
		rows = append(rows, AntiEntropyRow{Round: round, Fresh: freshness(), Exchanges: m.Exchanges.Load()})
	}
	return rows, nil
}

// RenderAntiEntropy prints the convergence series.
func RenderAntiEntropy(w io.Writer, rows []AntiEntropyRow) {
	fmt.Fprintln(w, "Anti-entropy — replica freshness vs background gossip rounds (weak updates)")
	fmt.Fprintf(w, "%6s %10s %12s\n", "round", "fresh", "exchanges")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %10.3f %12d\n", r.Round, r.Fresh, r.Exchanges)
	}
	fmt.Fprintln(w)
}
