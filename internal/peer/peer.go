// Package peer implements the state of a single P-Grid peer as defined in
// Section 2 of the paper: the sequence (p1,R1)(p2,R2)…(pn,Rn) of path bits
// and per-level reference sets, the buddy list used by the update
// strategies, the leaf-level data store, and the online/offline state.
//
// A Peer is a passive data structure guarded by a mutex; the routing and
// construction *algorithms* live in internal/core so the same peer state can
// be driven by the sequential simulator, the concurrent goroutine runtime,
// and the networked node.
package peer

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
)

// Peer is one member of the community P. Create with New.
type Peer struct {
	addr addr.Addr
	st   *store.Store

	mu      sync.Mutex
	path    bitpath.Path
	refs    []addr.Set // refs[i] holds refs(i+1, a): level i+1 references
	buddies addr.Set   // known replicas responsible for the same path
	online  bool
	// pathSum, when non-nil, is a community-wide Σ path-length counter the
	// peer keeps current on every path mutation, so the directory's
	// convergence metric is O(1) instead of an O(N) scan of N mutexes.
	pathSum *atomic.Int64
}

// New returns a fresh peer with the empty path (responsible for the whole
// key space), no references, and online state true.
func New(a addr.Addr) *Peer {
	return &Peer{addr: a, st: store.New(), online: true}
}

// Addr returns the peer's address; it never changes.
func (p *Peer) Addr() addr.Addr { return p.addr }

// Store returns the peer's data layer.
func (p *Peer) Store() *store.Store { return p.st }

// Path returns the path the peer is currently responsible for.
func (p *Peer) Path() bitpath.Path {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.path
}

// PathLen returns the current path length.
func (p *Peer) PathLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.path)
}

// Online reports whether the peer is currently reachable.
func (p *Peer) Online() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.online
}

// SetOnline sets the peer's reachability.
func (p *Peer) SetOnline(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.online = v
}

// TrackPathLen registers a shared counter that the peer keeps equal to the
// community-wide sum of path lengths: the peer's current path length is
// added immediately, and every subsequent path mutation adjusts the counter
// under the peer's lock. The directory installs one counter per community so
// its AvgPathLen is a single atomic load. A previously registered counter is
// credited back first, so re-tracking (or passing nil to detach) keeps every
// counter consistent.
func (p *Peer) TrackPathLen(sum *atomic.Int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pathSum != nil {
		p.pathSum.Add(-int64(len(p.path)))
	}
	p.pathSum = sum
	if sum != nil {
		sum.Add(int64(len(p.path)))
	}
}

// UntrackPathLen detaches the peer from its path-length counter, crediting
// its current contribution back. Used when a peer leaves a community for
// good (directory.Replace): late mutations of the discarded object must not
// corrupt the live community's sum.
func (p *Peer) UntrackPathLen() { p.TrackPathLen(nil) }

// RefsAt returns a copy of refs(level, p), the references at the given
// 1-based level. Levels beyond the current path length return an empty set.
func (p *Peer) RefsAt(level int) addr.Set {
	return p.RefsInto(nil, level)
}

// RefsInto is RefsAt with the copy made in buf's capacity when it fits —
// for a caller that only draws from the set before buf goes out of scope,
// such as the search loop, which then pays no allocation per hop.
func (p *Peer) RefsInto(buf []addr.Addr, level int) addr.Set {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refsAtLocked(buf, level)
}

func (p *Peer) refsAtLocked(buf []addr.Addr, level int) addr.Set {
	if level < 1 || level > len(p.refs) {
		return addr.Set{}
	}
	return p.refs[level-1].CloneInto(buf)
}

// SetRefsAt replaces refs(level, p) with a copy of s. The level must be
// within the current path length; it panics otherwise (callers extend the
// path first).
func (p *Peer) SetRefsAt(level int, s addr.Set) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.setRefsAtLocked(level, s)
}

func (p *Peer) setRefsAtLocked(level int, s addr.Set) {
	if level < 1 || level > len(p.path) {
		panic(fmt.Sprintf("peer %v: SetRefsAt(%d) outside path of length %d", p.addr, level, len(p.path)))
	}
	for len(p.refs) < level {
		p.refs = append(p.refs, addr.Set{})
	}
	own := &p.refs[level-1]
	own.CopyFrom(s)
	own.Remove(p.addr) // a peer never references itself
}

// AddRefAt inserts a reference at the given level if absent.
func (p *Peer) AddRefAt(level int, a addr.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a == p.addr {
		return
	}
	s := p.refsAtLocked(nil, level)
	s.Add(a)
	p.setRefsAtLocked(level, s)
}

// Buddies returns a copy of the peer's known replicas.
func (p *Peer) Buddies() addr.Set {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buddies.Clone()
}

// AddBuddy records another peer responsible for the same path.
func (p *Peer) AddBuddy(a addr.Addr) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if a != p.addr {
		p.buddies.Add(a)
	}
}

// RemoveBuddy drops one buddy and reports whether it was present. The
// repair protocol uses it to evict a reachable buddy that turned out to
// replicate a different partition (an orphan replica), without touching
// the rest of the group the way ClearBuddies would.
func (p *Peer) RemoveBuddy(a addr.Addr) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buddies.Remove(a)
}

// ClearBuddies drops buddies whose paths may have diverged. Called when the
// peer itself specializes (its replicas are no longer guaranteed replicas).
func (p *Peer) ClearBuddies() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buddies = addr.Set{}
}

// Snapshot is an immutable copy of the mutable peer state, used by the
// exchange algorithm to compute a decision before applying it, and by tests.
type Snapshot struct {
	Addr    addr.Addr
	Path    bitpath.Path
	Refs    []addr.Set
	Buddies addr.Set
	Online  bool
}

// Restore overwrites the peer's mutable state from a snapshot — the
// persistence path of a restarting node. The snapshot's Addr must match;
// refs must have one set per path bit. The data store is restored
// separately (it has its own lifecycle).
func (p *Peer) Restore(s Snapshot) error {
	if s.Addr != p.addr {
		return fmt.Errorf("peer %v: Restore from snapshot of %v", p.addr, s.Addr)
	}
	if !s.Path.Valid() {
		return fmt.Errorf("peer %v: Restore with invalid path %q", p.addr, string(s.Path))
	}
	if len(s.Refs) != s.Path.Len() {
		return fmt.Errorf("peer %v: Restore with %d reference sets for path of length %d",
			p.addr, len(s.Refs), s.Path.Len())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pathSum != nil {
		p.pathSum.Add(int64(s.Path.Len() - len(p.path)))
	}
	p.path = s.Path
	p.refs = make([]addr.Set, len(s.Refs))
	for i, r := range s.Refs {
		rs := r.Clone()
		rs.Remove(p.addr)
		p.refs[i] = rs
	}
	b := s.Buddies.Clone()
	b.Remove(p.addr)
	p.buddies = b
	p.online = s.Online
	return nil
}

// Snapshot returns a consistent copy of the peer's state.
func (p *Peer) Snapshot() Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	refs := make([]addr.Set, len(p.refs))
	for i := range p.refs {
		refs[i] = p.refs[i].Clone()
	}
	return Snapshot{Addr: p.addr, Path: p.path, Refs: refs, Buddies: p.buddies.Clone(), Online: p.online}
}

// ExtendFrom appends bit b to the path and installs the given reference set
// at the new deepest level — the specialization step of construction cases
// 1–3 — but only if the path still equals old. It reports whether the
// extension was applied.
//
// The conditional form makes exchanges safe under concurrency without
// holding two peers' locks at once: an exchange computes its decision from
// snapshots and applies it with ExtendFrom; if another exchange specialized
// the peer in between, the application aborts, exactly as a real networked
// peer would discard a decision based on stale state. Extending invalidates
// the buddy list (former replicas may have specialized the other way), so
// the list is cleared.
func (p *Peer) ExtendFrom(old bitpath.Path, b byte, newRefs addr.Set) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.path != old {
		return false
	}
	p.extendLocked(b, newRefs)
	return true
}

// extendLocked appends bit b to the path with a copy of newRefs, less the
// peer itself, at the new level.
func (p *Peer) extendLocked(b byte, newRefs addr.Set) {
	p.path = p.path.Append(b)
	own := newRefs.Clone()
	own.Remove(p.addr)
	p.refs = append(p.refs, own)
	if len(p.refs) != len(p.path) {
		panic(fmt.Sprintf("peer %v: refs/path length mismatch %d/%d", p.addr, len(p.refs), len(p.path)))
	}
	p.buddies = addr.Set{}
	if p.pathSum != nil {
		p.pathSum.Add(1)
	}
}

// String renders the peer for logs.
func (p *Peer) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("peer{%v path=%s online=%t}", p.addr, p.path, p.online)
}
