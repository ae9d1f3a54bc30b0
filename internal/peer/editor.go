package peer

import (
	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

// Editor provides lock-free access to a peer whose mutex is already held by
// Edit or EditPair. It exists so the exchange algorithm can read and mutate
// two peers atomically — the construction cases 1–3 change both peers'
// paths and reference sets as one decision — without the non-reentrant
// locking of the public Peer methods.
//
// An Editor must not escape the callback it was handed to.
type Editor struct {
	p *Peer
}

// Addr returns the peer's address.
func (e Editor) Addr() addr.Addr { return e.p.addr }

// Path returns the peer's current path.
func (e Editor) Path() bitpath.Path { return e.p.path }

// Online reports the peer's reachability.
func (e Editor) Online() bool { return e.p.online }

// RefsAt returns refs(level, p) as a read-only view of the peer's own
// storage, empty beyond the path: valid until the next SetRefsAt or Extend
// on this Editor and no longer than the callback. A caller that wants to
// change or keep the set clones it first (addr.Set.CloneInto).
func (e Editor) RefsAt(level int) addr.Set {
	if level < 1 || level > len(e.p.refs) {
		return addr.Set{}
	}
	return e.p.refs[level-1]
}

// SetRefsAt replaces refs(level, p) with a copy of s made in the level's
// existing storage; level must be within the path. s stays the caller's and
// may be a view RefsAt handed out, of this level too.
func (e Editor) SetRefsAt(level int, s addr.Set) { e.p.setRefsAtLocked(level, s) }

// Buddies returns the peer's buddy list as a read-only view of its own
// storage, valid no longer than the callback; like RefsAt's, a caller that
// wants to change or keep it clones it first.
func (e Editor) Buddies() addr.Set { return e.p.buddies }

// AddBuddy records a replica.
func (e Editor) AddBuddy(a addr.Addr) {
	if a != e.p.addr {
		e.p.buddies.Add(a)
	}
}

// Extend appends bit b to the path and installs a copy of newRefs at the
// new level, clearing the buddy list (see Peer.ExtendFrom).
func (e Editor) Extend(b byte, newRefs addr.Set) { e.p.extendLocked(b, newRefs) }

// Edit runs f with the peer's lock held.
func Edit(p *Peer, f func(Editor)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f(Editor{p})
}

// EditPair runs f with both peers' locks held, acquired in address order so
// concurrent exchanges cannot deadlock. It panics if a and b are the same
// peer: a peer never exchanges with itself.
func EditPair(a, b *Peer, f func(ea, eb Editor)) {
	if a == b {
		panic("peer: EditPair called with identical peers")
	}
	first, second := a, b
	if second.addr < first.addr {
		first, second = second, first
	}
	first.mu.Lock()
	defer first.mu.Unlock()
	second.mu.Lock()
	defer second.mu.Unlock()
	f(Editor{a}, Editor{b})
}
