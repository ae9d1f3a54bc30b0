package core

import (
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/repair"
	"pgrid/internal/store"
)

// DirectoryCalls is the simulator's driver of the repair round (Repair): it
// answers every call from the directory, with no network. A peer that is
// offline or not in the directory fails the call, as an unreachable node
// does; a routed search is Query from the contact, drawing from the
// driver's rng.
type DirectoryCalls struct {
	d   *directory.Directory
	rng *rand.Rand
}

// NewDirectoryCalls returns a driver answering from d.
func NewDirectoryCalls(d *directory.Directory, rng *rand.Rand) *DirectoryCalls {
	return &DirectoryCalls{d: d, rng: rng}
}

func (c *DirectoryCalls) online(a addr.Addr) *peer.Peer {
	if p := c.d.Peer(a); p != nil && p.Online() {
		return p
	}
	return nil
}

// Health answers a buddy's health digest.
func (c *DirectoryCalls) Health(to addr.Addr) repair.BuddyView {
	p := c.online(to)
	if p == nil {
		return repair.BuddyView{}
	}
	sum := p.Store().Summary()
	return repair.BuddyView{Path: p.Path(), Entries: sum.Entries, IndexHash: sum.Hash, Reachable: true}
}

// Info answers a peer's path and buddies.
func (c *DirectoryCalls) Info(to addr.Addr, _ bitpath.Path, _ int) (bitpath.Path, addr.Set, bool) {
	p := c.online(to)
	if p == nil {
		return bitpath.Empty, addr.Set{}, false
	}
	return p.Path(), p.Buddies(), true
}

// Route runs Query from the contact.
func (c *DirectoryCalls) Route(via addr.Addr, key bitpath.Path) (QueryResult, bitpath.Path, bool) {
	p := c.online(via)
	if p == nil {
		return QueryResult{}, bitpath.Empty, false
	}
	res := Query(c.d, p, key, c.rng)
	if !res.Found {
		return res, bitpath.Empty, true
	}
	return res, c.d.Peer(res.Peer).Path(), true
}

// Scan answers a peer's entries under prefix.
func (c *DirectoryCalls) Scan(from addr.Addr, prefix bitpath.Path) ([]store.Entry, bool) {
	p := c.online(from)
	if p == nil {
		return nil, false
	}
	return p.Store().PrefixScan(prefix), true
}

// Apply applies entries to a peer's store.
func (c *DirectoryCalls) Apply(to addr.Addr, entries []store.Entry) bool {
	p := c.online(to)
	if p == nil {
		return false
	}
	for _, e := range entries {
		p.Store().Apply(e)
	}
	return true
}

// RepairAll runs one repair round at RepairBudget on every online peer, in
// address order, and returns the reference probes the rounds made, the
// messages they spent and their heals by action.
func RepairAll(d *directory.Directory, refmax int, rng *rand.Rand) (probes, spent int, heals map[repair.Action]int) {
	calls := NewDirectoryCalls(d, rng)
	heals = make(map[repair.Action]int)
	for _, p := range d.All() {
		if !p.Online() {
			continue
		}
		round := Repair(p, refmax, RepairBudget, calls)
		probes += round.Probed
		spent += round.Spent
		for _, a := range round.Heals {
			heals[a]++
		}
	}
	return probes, spent, heals
}

// RefHealth measures the state of the community's reference fabric: the
// fraction of references pointing at *valid* peers (online and still
// covering the promised prefix), and the mean fill level of reference sets
// relative to refmax. The maintenance experiments track these under churn.
type RefHealth struct {
	// AliveFraction is the fraction of references whose peer is online and
	// passes repair.ValidRef (1 = perfectly fresh).
	AliveFraction float64
	// Fill is the mean reference-set size divided by refmax.
	Fill float64
	// Refs is the total reference count.
	Refs int
}

// MeasureRefHealth computes RefHealth over the online community — the
// reference tables actually in service (offline peers' tables are assessed
// when they return and run their own repair).
func MeasureRefHealth(d *directory.Directory, cfg Config) RefHealth {
	var alive, total, levels int
	for _, p := range d.All() {
		if !p.Online() {
			continue
		}
		s := p.Snapshot()
		for level, rs := range s.Refs {
			levels++
			for _, r := range rs.Slice() {
				total++
				if q := d.Peer(r); q != nil && q.Online() && repair.ValidRef(s.Path, level+1, q.Path()) {
					alive++
				}
			}
		}
	}
	var h RefHealth
	h.Refs = total
	if total > 0 {
		h.AliveFraction = float64(alive) / float64(total)
	}
	if levels > 0 && cfg.RefMax > 0 {
		h.Fill = float64(total) / float64(levels) / float64(cfg.RefMax)
	}
	return h
}
