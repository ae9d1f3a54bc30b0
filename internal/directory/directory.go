// Package directory maintains the community of peers P: the addressing
// functions addr/peer of Section 2, the online model, and global views used
// by the simulator, the statistics, and the test oracles.
//
// The directory itself is NOT part of the distributed algorithm — the paper's
// point is that no such global component is needed for routing. It exists to
// (a) resolve logical addresses to peer objects, standing in for the
// underlying communication infrastructure ("peers that are online can be
// reached reliably through their address"), and (b) let experiments and
// tests observe global state they could not observe in a real deployment.
package directory

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
)

// Directory is the peer community.
type Directory struct {
	peers []*peer.Peer
	// pathSum is Σ length(path(a)) over the community, maintained
	// incrementally by the peers themselves (see peer.TrackPathLen) so the
	// construction-convergence metric AvgPathLen is O(1). The simulation
	// engines poll it after every meeting.
	pathSum atomic.Int64
}

// New creates n fresh peers with addresses 0…n-1, all online, all
// responsible for the whole key space.
func New(n int) *Directory {
	d := &Directory{peers: make([]*peer.Peer, n)}
	for i := range d.peers {
		d.peers[i] = peer.New(addr.Addr(i))
		d.peers[i].TrackPathLen(&d.pathSum)
	}
	return d
}

// N returns the community size.
func (d *Directory) N() int { return len(d.peers) }

// Peer resolves an address (peer(r) in the paper). It returns nil for
// invalid addresses so routing code can treat dangling references as
// unreachable peers.
func (d *Directory) Peer(a addr.Addr) *peer.Peer {
	if int(a) < 0 || int(a) >= len(d.peers) {
		return nil
	}
	return d.peers[a]
}

// All returns the underlying peer slice; callers must not modify it.
func (d *Directory) All() []*peer.Peer { return d.peers }

// Online reports whether the peer at a exists and is online — the paper's
// online(peer(r)) predicate used by both search and construction.
func (d *Directory) Online(a addr.Addr) bool {
	p := d.Peer(a)
	return p != nil && p.Online()
}

// RandomPeer returns a uniformly random peer.
func (d *Directory) RandomPeer(rng *rand.Rand) *peer.Peer {
	return d.peers[rng.Intn(len(d.peers))]
}

// randomOnlineRetries bounds the rejection-sampling fast path of
// RandomOnlinePeer: with online fraction f the fallback scan runs with
// probability (1-f)^32 — under one in a thousand even at f = 0.2.
const randomOnlineRetries = 32

// RandomOnlinePeer returns a uniformly random online peer, or nil if none
// is online. It allocates nothing: rejection sampling hits an online peer in
// O(1/f) expected draws at online fraction f, and the rare fallback (nearly
// everyone offline) is a single-pass reservoir sample over the community.
func (d *Directory) RandomOnlinePeer(rng *rand.Rand) *peer.Peer {
	for try := 0; try < randomOnlineRetries; try++ {
		if p := d.peers[rng.Intn(len(d.peers))]; p.Online() {
			return p
		}
	}
	var chosen *peer.Peer
	seen := 0
	for _, p := range d.peers {
		if p.Online() {
			seen++
			if rng.Intn(seen) == 0 {
				chosen = p
			}
		}
	}
	return chosen
}

// RandomPair returns two distinct uniformly random peers — one random
// meeting. It panics if the community has fewer than two peers.
func (d *Directory) RandomPair(rng *rand.Rand) (*peer.Peer, *peer.Peer) {
	if len(d.peers) < 2 {
		panic("directory: RandomPair needs at least two peers")
	}
	i := rng.Intn(len(d.peers))
	j := rng.Intn(len(d.peers) - 1)
	if j >= i {
		j++
	}
	return d.peers[i], d.peers[j]
}

// SetAllOnline sets every peer's online flag.
func (d *Directory) SetAllOnline(v bool) {
	for _, p := range d.peers {
		p.SetOnline(v)
	}
}

// SampleOnline independently sets each peer online with probability prob,
// realizing the paper's online : P → [0,1] model for one observation epoch.
func (d *Directory) SampleOnline(rng *rand.Rand, prob float64) {
	for _, p := range d.peers {
		p.SetOnline(rng.Float64() < prob)
	}
}

// OnlineCount returns the number of online peers.
func (d *Directory) OnlineCount() int {
	n := 0
	for _, p := range d.peers {
		if p.Online() {
			n++
		}
	}
	return n
}

// AvgPathLen returns (1/N)·Σ length(path(a)), the construction-convergence
// metric of Section 5.1. It is O(1): the sum is maintained incrementally on
// every path extension, so the simulation engines can poll convergence after
// every meeting instead of rationing an O(N) scan.
func (d *Directory) AvgPathLen() float64 {
	if len(d.peers) == 0 {
		return 0
	}
	return float64(d.pathSum.Load()) / float64(len(d.peers))
}

// ReplicaGroups returns, for each path some peer is responsible for, the
// addresses of all peers responsible for it (its replica group), ascending:
// the community is walked in address order. One pass, one Path() per peer.
func (d *Directory) ReplicaGroups() map[bitpath.Path][]addr.Addr {
	groups := make(map[bitpath.Path][]addr.Addr)
	for _, p := range d.peers {
		path := p.Path()
		groups[path] = append(groups[path], p.Addr())
	}
	return groups
}

// Replace models permanent departure with replacement: the peer at a is
// discarded and a fresh peer (empty path, no references, no data, online)
// takes over the address. References other peers hold toward a keep
// resolving but now point at a peer with none of the expected state —
// the failure mode the maintenance protocol repairs. It panics on an
// invalid address.
func (d *Directory) Replace(a addr.Addr) *peer.Peer {
	old := d.Peer(a)
	if old == nil {
		panic(fmt.Sprintf("directory: Replace(%v): no such peer", a))
	}
	old.UntrackPathLen()
	p := peer.New(a)
	p.TrackPathLen(&d.pathSum)
	d.peers[a] = p
	return p
}

// AddPeer grows the community by one fresh peer and returns it — dynamic
// membership for the join experiments.
func (d *Directory) AddPeer() *peer.Peer {
	p := peer.New(addr.Addr(len(d.peers)))
	p.TrackPathLen(&d.pathSum)
	d.peers = append(d.peers, p)
	return p
}

// Covering returns the addresses of all peers whose responsibility region
// is in a prefix relationship with key — exactly the peers at which the
// depth-first search of Fig. 2 can terminate successfully for that key.
// This is the ground-truth replica group of the update experiments.
func (d *Directory) Covering(key bitpath.Path) []addr.Addr {
	var out []addr.Addr
	for _, p := range d.peers {
		if bitpath.Comparable(p.Path(), key) {
			out = append(out, p.Addr())
		}
	}
	return out
}

// CheckInvariants verifies the reference property of Section 2 for every
// peer: r ∈ refs(i, a) ⇒ prefix(i, peer(r)) = prefix(i-1, a)·(p_i)^-,
// i.e. the referenced peer agrees with a on the first i-1 bits and differs
// at bit i. It also checks structural properties: one reference set per path
// bit, no self references, no dangling addresses. Returns the first
// violation found, or nil.
func (d *Directory) CheckInvariants() error {
	scanSum := int64(0)
	for _, p := range d.peers {
		scanSum += int64(p.PathLen())
	}
	if got := d.pathSum.Load(); got != scanSum {
		return fmt.Errorf("incremental path-length sum %d diverged from scan %d", got, scanSum)
	}
	for _, p := range d.peers {
		s := p.Snapshot()
		if len(s.Refs) != s.Path.Len() {
			return fmt.Errorf("peer %v: %d reference sets for path of length %d", s.Addr, len(s.Refs), s.Path.Len())
		}
		for i := 1; i <= s.Path.Len(); i++ {
			for _, r := range s.Refs[i-1].Slice() {
				if r == s.Addr {
					return fmt.Errorf("peer %v: self-reference at level %d", s.Addr, i)
				}
				q := d.Peer(r)
				if q == nil {
					return fmt.Errorf("peer %v: dangling reference %v at level %d", s.Addr, r, i)
				}
				qp := q.Path()
				if qp.Len() < i {
					return fmt.Errorf("peer %v: reference %v at level %d has path %s shorter than %d",
						s.Addr, r, i, qp, i)
				}
				if qp.Prefix(i-1) != s.Path.Prefix(i-1) {
					return fmt.Errorf("peer %v (path %s): reference %v at level %d has diverging prefix %s",
						s.Addr, s.Path, r, i, qp)
				}
				if qp.Bit(i) == s.Path.Bit(i) {
					return fmt.Errorf("peer %v (path %s): reference %v at level %d has same bit %d",
						s.Addr, s.Path, r, i, qp.Bit(i))
				}
			}
		}
		for _, b := range s.Buddies.Slice() {
			if b == s.Addr {
				return fmt.Errorf("peer %v: self-buddy", s.Addr)
			}
			if d.Peer(b) == nil {
				return fmt.Errorf("peer %v: dangling buddy %v", s.Addr, b)
			}
		}
	}
	return nil
}
