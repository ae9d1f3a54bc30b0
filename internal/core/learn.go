package core

import (
	"math/rand"

	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/trace"
)

// Route learning — the "optimizing P-Grid construction and updates" item
// of the paper's Section 6: search traffic itself carries information
// about live peers. When a search succeeds, every peer that forwarded it
// now knows a responsible peer for the key's region; if that peer would be
// a valid reference at one of the forwarder's levels and there is room,
// the forwarder keeps it. Reference sets fill up "for free" as the system
// is used, instead of only through construction meetings.

// LearnFromTrace lets every peer on a successful traced route learn the
// responsible peer as a reference where valid, up to cfg.RefMax per level
// (existing references are never evicted — learning only fills spare
// capacity). It returns the number of references added.
func LearnFromTrace(d *directory.Directory, cfg Config, t trace.Trace) int {
	if !t.Found || len(t.Spans) == 0 {
		return 0
	}
	found := t.Spans[len(t.Spans)-1].Peer // a found route ends at the responsible peer
	target := d.Peer(found)
	if target == nil {
		return 0
	}
	targetPath := target.Path()
	added := 0
	for _, hop := range t.Spans {
		if hop.Peer == found {
			continue
		}
		p := d.Peer(hop.Peer)
		if p == nil {
			continue
		}
		path := p.Path()
		// The responsible peer is a valid reference for this hop at the
		// level where their paths first diverge.
		j := bitpath.CommonPrefixLen(path, targetPath) + 1
		if j > path.Len() || j > targetPath.Len() {
			continue // prefix relation: no diverging level to file it under
		}
		refs := p.RefsAt(j)
		if refs.Len() >= cfg.RefMax || refs.Contains(found) {
			continue
		}
		p.AddRefAt(j, found)
		added++
	}
	return added
}

// Warm runs `queries` traced searches for uniform random keys of length
// keyLen from random online entry points, learning references from every
// successful route. It returns total references learned and messages
// spent. Use it to thicken routing tables after construction or repair.
func Warm(d *directory.Directory, cfg Config, queries, keyLen int, rng *rand.Rand) (learned, messages int) {
	for i := 0; i < queries; i++ {
		start := d.RandomOnlinePeer(rng)
		if start == nil {
			return learned, messages
		}
		t := QueryTraced(d, start, bitpath.Random(rng, keyLen), rng)
		messages += t.Messages
		learned += LearnFromTrace(d, cfg, t)
	}
	return learned, messages
}
