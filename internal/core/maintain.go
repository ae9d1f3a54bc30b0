package core

import (
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/repair"
)

// This file implements the reference-maintenance extension sketched in the
// paper's Section 6 ("another natural extension would be to take system
// parameters, like known reliability of peers … into account"). The base
// algorithm builds reference sets once, during construction; under
// long-running churn, references decay as peers leave permanently. The
// maintenance protocol lets a peer refresh its reference sets using only
// local interactions: it probes its references, drops those that look
// dead, and refills levels by asking live references for *their* entries
// at the same level (which are valid for the asker by the Section 2
// invariant, since both sides of the probe share the prefix above it).

// MaintainResult reports one maintenance round of a single peer.
type MaintainResult struct {
	// Probed is the number of references probed.
	Probed int
	// Dropped is the number of references removed as dead.
	Dropped int
	// Added is the number of fresh references learned.
	Added int
	// Messages is the message cost (probes + successful fetches).
	Messages int
}

// MaintainOptions tunes reference maintenance.
type MaintainOptions struct {
	// DropOffline removes references that fail the probe this round.
	// With sessionful churn (peers return), dropping is too eager unless
	// refill keeps sets full; both paths are exercised by the ablation
	// benchmark.
	DropOffline bool
	// Fetch asks up to this many live references per level for their own
	// reference sets to refill the level (0 disables refill).
	Fetch int
}

// Maintain runs one maintenance round for peer a: for every level of its
// path, probe the references, optionally drop the dead, and refill the
// level toward cfg.RefMax by merging reference sets fetched from live
// same-level references.
func Maintain(d *directory.Directory, cfg Config, a *peer.Peer, opts MaintainOptions, rng *rand.Rand) MaintainResult {
	var res MaintainResult
	path := a.Path()
	for level := 1; level <= path.Len(); level++ {
		refs := a.RefsAt(level)
		live := addr.Set{}
		dead := addr.Set{}
		for _, r := range refs.Slice() {
			res.Probed++
			res.Messages++ // the probe itself
			// Probe, don't just ping: a departed peer may have been
			// replaced by a blank newcomer at the same address, which
			// answers but covers nothing the reference promises.
			if Probe(d, path, level, r) {
				live.Add(r)
			} else {
				dead.Add(r)
			}
		}

		kept := refs
		excluded := addr.Set{}
		if opts.DropOffline {
			kept = live.Clone()
			res.Dropped += dead.Len()
			// References dropped as dead this round must not sneak back in
			// via refill below: a fetched buddy set is a stale snapshot,
			// and readmitting an address we just probed dead would undo the
			// drop with information older than the probe.
			excluded = dead
		}

		if opts.Fetch > 0 && kept.Len() < cfg.RefMax {
			refillLevel(d, cfg, a, level, &kept, live, excluded, opts.Fetch, rng, &res)
		}
		if kept.Len() > 0 || opts.DropOffline {
			setRefsClamped(a, level, kept, cfg.RefMax, rng)
		}
	}
	return res
}

// refillLevel refills one level toward cfg.RefMax by merging reference
// sets fetched from live same-level references, mutating kept in place.
// Their level-`level` references point to peers on THEIR opposite side —
// which is our own side, so they are NOT valid for us; their references
// at any deeper level are useless too (deeper prefixes differ). The
// correct refill source is their *buddies*: any peer with the same first
// `level` bits as the live reference is a valid level-`level` reference
// for us. Addresses in excluded are never added, no matter what the
// fetched sets claim — Maintain passes the set it dropped as dead this
// round, so a stale buddy list cannot resurrect a dead reference in the
// same round that buried it.
func refillLevel(d *directory.Directory, cfg Config, a *peer.Peer, level int, kept *addr.Set, live, excluded addr.Set, fetchMax int, rng *rand.Rand, res *MaintainResult) {
	fetched := 0
	path := a.Path()
	for _, r := range live.Shuffled(rng) {
		if fetched >= fetchMax || kept.Len() >= cfg.RefMax {
			break
		}
		q := d.Peer(r)
		if q == nil {
			continue
		}
		res.Messages++ // the fetch round trip
		fetched++
		for _, b := range q.Buddies().Slice() {
			if kept.Len() >= cfg.RefMax {
				break
			}
			if b == a.Addr() || kept.Contains(b) || excluded.Contains(b) || !Probe(d, path, level, b) {
				continue
			}
			// A live buddy of a valid level reference shares its
			// full path, hence its first `level` bits: valid for us.
			if kept.Add(b) {
				res.Added++
			}
		}
	}
}

func setRefsClamped(a *peer.Peer, level int, s addr.Set, refmax int, rng *rand.Rand) {
	if s.Len() > refmax {
		s = s.RandomSubset(rng, refmax)
	}
	a.SetRefsAt(level, s)
}

// MaintainAll runs one maintenance round for every online peer and sums
// the results.
func MaintainAll(d *directory.Directory, cfg Config, opts MaintainOptions, rng *rand.Rand) MaintainResult {
	var total MaintainResult
	for _, p := range d.All() {
		if !p.Online() {
			continue
		}
		r := Maintain(d, cfg, p, opts, rng)
		total.Probed += r.Probed
		total.Dropped += r.Dropped
		total.Added += r.Added
		total.Messages += r.Messages
	}
	return total
}

// RefHealth measures the state of the community's reference fabric: the
// fraction of references pointing at *valid* peers (online and still
// covering the promised prefix), and the mean fill level of reference sets
// relative to refmax. The maintenance experiments track these under churn.
type RefHealth struct {
	// AliveFraction is the fraction of references that pass Probe
	// (1 = perfectly fresh).
	AliveFraction float64
	// Fill is the mean reference-set size divided by refmax.
	Fill float64
	// Refs is the total reference count.
	Refs int
}

// MeasureRefHealth computes RefHealth over the online community — the
// reference tables actually in service (offline peers' tables are assessed
// when they return and run their own maintenance).
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
				if Probe(d, s.Path, level+1, r) {
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

// ReplaceDeparted models permanent departure with replacement, the
// community dynamics of long-lived systems: the peer at address a leaves
// for good and a fresh peer (empty path, no references, no data) takes
// over the address. Existing references to a become dangling-but-
// resolvable: they now point at a peer that is responsible for nothing
// they expect — exactly what maintenance must detect and repair. Returns
// the new peer.
func ReplaceDeparted(d *directory.Directory, a addr.Addr) *peer.Peer {
	return d.Replace(a)
}

// Probe reports whether the peer at r is online and still covers the
// prefix the prober expects (prefix of length level-1 shared, bit level
// opposite). Maintenance uses it to detect replaced peers, not just
// offline ones.
func Probe(d *directory.Directory, self bitpath.Path, level int, r addr.Addr) bool {
	q := d.Peer(r)
	return q != nil && q.Online() && repair.ValidRef(self, level, q.Path())
}
