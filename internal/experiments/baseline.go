package experiments

import (
	"fmt"
	"math/rand"

	"pgrid/internal/central"
	"pgrid/internal/core"
	"pgrid/internal/flood"
	"pgrid/internal/trie"
	"pgrid/internal/workload"
)

// Sec6Row is one community size of the Section 6 comparison, measured on
// live implementations of all three architectures indexing the same
// catalog (one item per peer). Storage counts index references per node;
// query cost counts messages when every peer issues one query.
type Sec6Row struct {
	N int
	D int // catalog size (= N, one shared item per peer)

	// P-Grid: per-peer routing-table size (O(log D)) and mean messages per
	// query (O(log N)).
	PGridStoragePerPeer float64
	PGridMsgsPerQuery   float64
	PGridSuccess        float64

	// Central server: per-replica storage (O(D)) and queries handled by
	// the busiest replica when all N clients query once (O(N)).
	CentralStorage int
	CentralMaxLoad int64

	// Flooding: mean messages per query (O(N) to reach the whole overlay)
	// and the fraction of queries that found the item.
	FloodMsgsPerQuery float64
	FloodSuccess      float64
}

// Sec6Params configures the comparison sweep.
type Sec6Params struct {
	Sizes    []int // community sizes to sweep
	RefMax   int
	FloodTTL int
	Seed     int64
}

// PaperSec6Params compares at community sizes that keep the flooding
// baseline tractable while spanning an order of magnitude.
func PaperSec6Params() Sec6Params {
	return Sec6Params{Sizes: []int{256, 512, 1024, 2048}, RefMax: 2, FloodTTL: 64, Seed: 1}
}

// Sec6 measures the Section 6 table. For each N it builds an ideal P-Grid
// of depth log2(N/4) (≈ 4 replicas per leaf), a single central server, and
// a degree-3 flooding overlay, indexes the same catalog in each, and lets
// every peer issue one lookup for a uniformly random item.
func Sec6(p Sec6Params) ([]Sec6Row, error) {
	var rows []Sec6Row
	for _, n := range p.Sizes {
		row, err := sec6Row(n, p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func sec6Row(n int, p Sec6Params) (Sec6Row, error) {
	depth := 0
	for 1<<uint(depth+1) <= n/4 {
		depth++
	}
	if depth < 1 {
		return Sec6Row{}, fmt.Errorf("sec6: N=%d too small", n)
	}
	rng := rand.New(rand.NewSource(p.Seed + int64(n)))
	catalog := workload.FileCatalog(rng, n, n, depth+4)

	// --- P-Grid ---
	d := trie.BuildIdeal(n, depth, p.RefMax, rng)
	core.PopulateIndex(d, catalog.Entries...)
	var (
		pgMsgs int
		pgSucc int
	)
	storage := 0.0
	for _, peer := range d.All() {
		for l := 1; l <= peer.PathLen(); l++ {
			storage += float64(peer.RefsAt(l).Len())
		}
	}
	storage /= float64(n)
	for _, peer := range d.All() {
		e := catalog.Entries[rng.Intn(len(catalog.Entries))]
		res := core.Query(d, peer, e.Key, rng)
		pgMsgs += res.Messages
		if res.Found {
			if _, ok := d.Peer(res.Peer).Store().Get(e.Key, e.Name); ok {
				pgSucc++
			}
		}
	}

	// --- Central server ---
	cs := central.New(1)
	for _, e := range catalog.Entries {
		cs.Publish(e)
	}
	for i := 0; i < n; i++ {
		cs.Lookup(rng, catalog.Entries[rng.Intn(len(catalog.Entries))].Name)
	}

	// --- Flooding ---
	fl := flood.New(rng, n, 3)
	for _, e := range catalog.Entries {
		fl.Host(e.Holder, e)
	}
	var flMsgs, flSucc int
	for i := 0; i < n; i++ {
		e := catalog.Entries[rng.Intn(len(catalog.Entries))]
		res := fl.Search(rng, fl.RandomOnlinePeer(rng), e.Name, p.FloodTTL)
		flMsgs += res.Messages
		if len(res.Found) > 0 {
			flSucc++
		}
	}

	return Sec6Row{
		N:                   n,
		D:                   len(catalog.Entries),
		PGridStoragePerPeer: storage,
		PGridMsgsPerQuery:   float64(pgMsgs) / float64(n),
		PGridSuccess:        float64(pgSucc) / float64(n),
		CentralStorage:      cs.StoragePerReplica(),
		CentralMaxLoad:      cs.MaxLoad(),
		FloodMsgsPerQuery:   float64(flMsgs) / float64(n),
		FloodSuccess:        float64(flSucc) / float64(n),
	}, nil
}
