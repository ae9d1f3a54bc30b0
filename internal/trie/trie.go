// Package trie provides a global view of a P-Grid as a binary trie. It is
// a fixture factory and a renderer: nothing in here is part of the
// distributed algorithm (which never has a global view); it exists so
// experiments can fabricate perfectly balanced grids without running the
// construction process, and the tools can draw a grid's structure. Its
// tests ask it "who *should* cover this key?".
package trie

import (
	"fmt"
	"math/rand"
	"sort"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
)

// Trie is a snapshot of the responsibility structure of a community.
type Trie struct {
	byPath map[bitpath.Path][]addr.Addr
}

// FromDirectory snapshots the current paths of every peer.
func FromDirectory(d *directory.Directory) *Trie {
	t := &Trie{byPath: make(map[bitpath.Path][]addr.Addr)}
	for _, p := range d.All() {
		path := p.Path()
		t.byPath[path] = append(t.byPath[path], p.Addr())
	}
	for _, g := range t.byPath {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	return t
}

// ReplicaCounts returns the sizes of all replica groups, keyed by path.
func (t *Trie) ReplicaCounts() map[bitpath.Path]int {
	out := make(map[bitpath.Path]int, len(t.byPath))
	for p, g := range t.byPath {
		out[p] = len(g)
	}
	return out
}

// BuildIdeal fabricates a perfectly balanced grid: n peers spread
// round-robin over the 2^depth leaves, each holding refmax references per
// level chosen uniformly from the peers in the sibling subtree at that
// level (or all of them if fewer than refmax exist). Buddies are fully
// populated with the other replicas of the same leaf.
//
// The result satisfies directory.CheckInvariants by construction and is the
// idealized structure the Section 4 analysis assumes. It panics if n < 2^depth
// (every leaf needs at least one peer).
func BuildIdeal(n, depth, refmax int, rng *rand.Rand) *directory.Directory {
	leaves := 1 << uint(depth)
	if n < leaves {
		panic(fmt.Sprintf("trie: BuildIdeal(n=%d, depth=%d): need at least %d peers", n, depth, leaves))
	}
	d := directory.New(n)

	// Assign peers to leaves round-robin over a random permutation so that
	// replica groups differ across seeds but sizes stay balanced.
	perm := rng.Perm(n)
	leafOf := make([]bitpath.Path, n)
	peersAt := make(map[bitpath.Path][]addr.Addr, leaves)
	for i, pi := range perm {
		leaf := bitpath.FromUint(uint64(i%leaves), depth)
		a := addr.Addr(pi)
		leafOf[pi] = leaf
		peersAt[leaf] = append(peersAt[leaf], a)
	}

	// peersUnder[prefix] = all peers whose leaf starts with prefix.
	// Iterate leaves in key order, not map order: candidate lists (and so
	// the rng-driven reference choices below) must be deterministic for a
	// given seed.
	peersUnder := make(map[bitpath.Path][]addr.Addr)
	for v := uint64(0); v < uint64(leaves); v++ {
		leaf := bitpath.FromUint(v, depth)
		for l := 0; l <= depth; l++ {
			pre := leaf.Prefix(l)
			peersUnder[pre] = append(peersUnder[pre], peersAt[leaf]...)
		}
	}

	for i := 0; i < n; i++ {
		a := addr.Addr(i)
		p := d.Peer(a)
		leaf := leafOf[i]
		for l := 1; l <= depth; l++ {
			// References at level l: peers under the sibling prefix.
			sib := leaf.Prefix(l).Sibling()
			cands := peersUnder[sib]
			refs := addr.Set{}
			if len(cands) <= refmax {
				refs = addr.NewSet(cands...)
			} else {
				for _, j := range rng.Perm(len(cands))[:refmax] {
					refs.Add(cands[j])
				}
			}
			if !p.ExtendFrom(leaf.Prefix(l-1), leaf.Bit(l), refs) {
				panic("trie: BuildIdeal: extension failed")
			}
		}
		for _, b := range peersAt[leaf] {
			p.AddBuddy(b)
		}
	}
	return d
}
