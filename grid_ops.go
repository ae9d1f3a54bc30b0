package pgrid

import (
	"fmt"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/repair"
	"pgrid/internal/store"
)

// This file completes the Grid API with the operational features built on
// the paper's future-work extensions: dynamic membership, reference
// maintenance under churn, route inspection, and key-level enumeration.

// JoinStats reports the integration of one newcomer.
type JoinStats struct {
	// Peer is the newcomer's id.
	Peer int
	// Meetings is how many bootstrap meetings it initiated.
	Meetings int
	// Depth is its final path depth.
	Depth int
	// Settled reports whether it reached the community's configured depth.
	Settled bool
}

// Join grows the community by one fresh peer, integrating it through
// ordinary gossip with random online peers (no special join protocol).
// Typical cost is O(depth) meetings regardless of community size.
func (g *Grid) Join() (JoinStats, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.dir.AddPeer()
	var m core.Metrics
	res := core.Join(g.dir, g.cfg, &m, p, g.cfg.MaxL, 100*g.cfg.MaxL, g.rng)
	st := JoinStats{Peer: int(p.Addr()), Meetings: res.Meetings, Depth: res.Depth, Settled: res.Settled}
	if !res.Settled {
		return st, fmt.Errorf("pgrid: join: newcomer reached depth %d of %d", res.Depth, g.cfg.MaxL)
	}
	return st, nil
}

// MaintainStats reports one community-wide maintenance round.
type MaintainStats struct {
	// Probed, Dropped, Added count reference probes, references evicted
	// (dead or on the wrong side), and fresh references learned (from live
	// references' buddies or by a routed search).
	Probed, Dropped, Added int
	// Messages is the total maintenance traffic.
	Messages int
	// AliveFraction is the post-round fraction of references that pass a
	// validity probe.
	AliveFraction float64
}

// Maintain runs one repair round on every online peer, the networked
// node's protocol (core.Repair): replica groups vote on their path and drop
// orphan buddies, references are probed, the dead and wrong-side evicted and
// levels refilled from live references' buddies or by a routed search, and
// replica stores sync. Run it periodically under churn to keep routing
// healthy.
func (g *Grid) Maintain() MaintainStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	probed, spent, heals := core.RepairAll(g.dir, g.cfg.RefMax, g.rng)
	health := core.MeasureRefHealth(g.dir, g.cfg)
	return MaintainStats{
		Probed: probed, Dropped: heals[repair.ActionEvictRef],
		Added:    heals[repair.ActionRefillRef] + heals[repair.ActionSearchRefill],
		Messages: spent, AliveFraction: health.AliveFraction,
	}
}

// WarmStats reports a routing-table warming pass.
type WarmStats struct {
	// Learned is the number of references added across the community.
	Learned int
	// Messages is the query traffic spent.
	Messages int
}

// Warm thickens routing tables from query traffic: it runs `queries`
// traced searches for random keys and lets every peer on a successful
// route learn the responsible peer as a reference where valid (never
// evicting existing references, never exceeding refmax). Useful after
// construction with a tight reference budget, or after maintenance has
// dropped dead references.
func (g *Grid) Warm(queries int) WarmStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	learned, msgs := core.Warm(g.dir, g.cfg, queries, g.cfg.MaxL, g.rng)
	return WarmStats{Learned: learned, Messages: msgs}
}

// RouteHop is one step of a traced search.
type RouteHop struct {
	Peer        int
	Path        string
	Matched     bool
	Backtracked bool
}

// Trace routes a search for key like Search but returns the full route,
// including backtracking around offline peers — the debugging view of the
// routing fabric.
func (g *Grid) Trace(key string) ([]RouteHop, SearchResult, error) {
	k, err := bitpath.Parse(key)
	if err != nil {
		return nil, SearchResult{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	start := g.dir.RandomOnlinePeer(g.rng)
	if start == nil {
		return nil, SearchResult{}, ErrUnreachable
	}
	tr := core.QueryTraced(g.dir, start, k, g.rng)
	hops := make([]RouteHop, len(tr.Spans))
	for i, h := range tr.Spans {
		hops[i] = RouteHop{Peer: int(h.Peer), Path: string(h.Path), Matched: h.Matched, Backtracked: h.Backtracked}
	}
	res := SearchResult{Cost: Cost{Messages: tr.Messages}}
	if !tr.Found {
		return hops, res, ErrUnreachable
	}
	last := hops[len(hops)-1] // a found route ends at the responsible peer
	res.Peer, res.Path = last.Peer, last.Path
	return hops, res, nil
}

// RangeSearch returns every known entry whose key lies in the inclusive
// range [lo, hi] (both the same length). The range is decomposed into at
// most 2·len canonical prefixes — this is where the ordered, trie-shaped
// key space pays off over hash partitioning — and each prefix is resolved
// with a breadth-first fan-out over its covering replicas. Entries are
// merged freshest-version-first per (key, name).
func (g *Grid) RangeSearch(lo, hi string) ([]Entry, Cost, error) {
	loP, err := bitpath.Parse(lo)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("%w: %q", ErrBadKey, lo)
	}
	hiP, err := bitpath.Parse(hi)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("%w: %q", ErrBadKey, hi)
	}
	prefixes, err := bitpath.CoverRange(loP, hiP)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("pgrid: range: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()

	var cost Cost
	var merged store.Fold
	resolvedAny := false
	for _, prefix := range prefixes {
		start := g.dir.RandomOnlinePeer(g.rng)
		if start == nil {
			return nil, cost, ErrUnreachable
		}
		res := core.ReplicaSearch(g.dir, start, prefix, g.cfg.RefMax, g.rng)
		cost.Messages += res.Messages
		cost.Replicas += len(res.Found)
		if len(res.Found) > 0 {
			resolvedAny = true
		}
		for _, a := range res.Found {
			scan := g.dir.Peer(a).Store().PrefixScan(prefix)
			members := scan[:0]
			for _, e := range scan {
				// A covering peer's scan can include keys shorter than the
				// range bounds (region keys); only same-length keys are
				// range members.
				if e.Key.Len() == loP.Len() && bitpath.RangeContains(loP, hiP, e.Key) {
					members = append(members, e)
				}
			}
			merged.Add(members)
		}
	}
	if !resolvedAny {
		return nil, cost, ErrUnreachable
	}
	return externals(merged.Entries()), cost, nil
}

// LookupAll returns every entry indexed under exactly key, merged across
// one responsible replica (hash keys routinely collide across distinct
// names; this enumerates them).
func (g *Grid) LookupAll(key string) ([]Entry, Cost, error) {
	k, err := bitpath.Parse(key)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	start := g.dir.RandomOnlinePeer(g.rng)
	if start == nil {
		return nil, Cost{}, ErrUnreachable
	}
	res := core.Query(g.dir, start, k, g.rng)
	cost := Cost{Messages: res.Messages}
	if !res.Found {
		return nil, cost, ErrUnreachable
	}
	var out []Entry
	for _, e := range g.dir.Peer(res.Peer).Store().Lookup(k) {
		out = append(out, external(e))
	}
	if len(out) == 0 {
		return nil, cost, ErrNotFound
	}
	return out, cost, nil
}
