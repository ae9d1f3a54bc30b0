package peer

import (
	"slices"
	"sync"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/raceflag"
)

func TestEditSinglePeer(t *testing.T) {
	p := New(4)
	Edit(p, func(e Editor) {
		if e.Addr() != 4 || e.Path() != bitpath.Empty || !e.Online() {
			t.Errorf("editor view wrong: %v %q %v", e.Addr(), e.Path(), e.Online())
		}
		e.Extend(1, addr.NewSet(7))
		e.AddBuddy(9)
		e.AddBuddy(4) // self: ignored
	})
	if p.Path() != "1" {
		t.Errorf("path = %q", p.Path())
	}
	if rs := p.RefsAt(1); !rs.Contains(7) {
		t.Errorf("refs = %v", rs.String())
	}
	b := p.Buddies()
	if !b.Contains(9) || b.Contains(4) {
		t.Errorf("buddies = %v", b.String())
	}
}

func TestEditorRefAccessors(t *testing.T) {
	p := New(0)
	Edit(p, func(e Editor) {
		e.Extend(0, addr.NewSet(1, 2))
		rs := e.RefsAt(1)
		if rs.Len() != 2 {
			t.Fatalf("refs = %v", rs.String())
		}
		// RefsAt is a read-only view of the peer's storage: whoever wants to
		// change the set clones it first.
		own := rs.Clone()
		own.Add(99)
		if e.RefsAt(1).Contains(99) {
			t.Error("a clone of the view aliases state")
		}
		if e.RefsAt(2).Len() != 0 || e.RefsAt(0).Len() != 0 {
			t.Error("levels outside the path must read empty")
		}
		e.SetRefsAt(1, addr.NewSet(5, 0)) // self stripped
		if got := e.RefsAt(1); got.Contains(0) || !got.Contains(5) {
			t.Errorf("after SetRefsAt: %v", got.String())
		}
		if got := e.Buddies(); got.Len() != 0 {
			t.Errorf("buddies = %v", got.String())
		}
	})
}

func TestEditPairMutatesBothAtomically(t *testing.T) {
	a, b := New(0), New(1)
	EditPair(a, b, func(ea, eb Editor) {
		ea.Extend(0, addr.NewSet(eb.Addr()))
		eb.Extend(1, addr.NewSet(ea.Addr()))
	})
	if a.Path() != "0" || b.Path() != "1" {
		t.Errorf("paths = %q, %q", a.Path(), b.Path())
	}
}

func TestEditPairPanicsOnSamePeer(t *testing.T) {
	p := New(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EditPair(p, p, func(_, _ Editor) {})
}

// TestEditPairNoDeadlockUnderContention drives many concurrent pair edits
// in both orders; address-ordered locking must prevent deadlock.
func TestEditPairNoDeadlockUnderContention(t *testing.T) {
	peers := make([]*Peer, 8)
	for i := range peers {
		peers[i] = New(addr.Addr(i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				x := peers[(w+i)%8]
				y := peers[(w+i+1+i%7)%8]
				if x == y {
					continue
				}
				EditPair(x, y, func(ex, ey Editor) {
					ex.AddBuddy(ey.Addr())
					ey.AddBuddy(ex.Addr())
				})
			}
		}(w)
	}
	wg.Wait()
	// Sanity: buddies recorded both ways somewhere.
	if peers[0].Buddies().Len() == 0 {
		t.Error("no buddies recorded under contention")
	}
}

func TestEditorExtendPanicsOnCorruptLengths(t *testing.T) {
	// Extend keeps the one-ref-set-per-bit invariant; this is enforced by
	// construction, so we just verify a normal extension chain stays
	// consistent at each step.
	p := New(2)
	for i := 0; i < 6; i++ {
		bit := byte(i % 2)
		Edit(p, func(e Editor) { e.Extend(bit, addr.NewSet(addr.Addr(i+10))) })
		if p.PathLen() != i+1 {
			t.Fatalf("path length %d after %d extends", p.PathLen(), i+1)
		}
	}
}

// sameAddrs reports whether got holds exactly want, in order.
func sameAddrs(got []addr.Addr, want ...addr.Addr) bool { return slices.Equal(got, want) }

// TestSetRefsAtCopiesIn: an install copies into the level's own storage, so
// the set handed in stays the caller's — also when it is a view of that very
// level, and also when it names the peer itself, which is dropped from the
// copy and not from the caller's set.
func TestSetRefsAtCopiesIn(t *testing.T) {
	p := New(3)
	Edit(p, func(e Editor) {
		e.Extend(0, addr.NewSet(1, 2, 4, 5))
		e.Extend(1, addr.NewSet(6))

		// A view of the same level, installed over itself.
		e.SetRefsAt(1, e.RefsAt(1))
		if got := e.RefsAt(1).Slice(); !sameAddrs(got, 1, 2, 4, 5) {
			t.Errorf("level 1 after installing its own view: %v", got)
		}

		// A view of another level: the two must not share storage afterwards.
		e.SetRefsAt(2, e.RefsAt(1))
		e.SetRefsAt(1, addr.NewSet(9))
		if got := e.RefsAt(2).Slice(); !sameAddrs(got, 1, 2, 4, 5) {
			t.Errorf("level 2 changed with level 1: %v", got)
		}

		// A set naming the peer itself: stored order kept, self dropped, the
		// caller's set untouched.
		mine := addr.NewSet(7, 3, 8)
		e.SetRefsAt(1, mine)
		if got := e.RefsAt(1).Slice(); !sameAddrs(got, 7, 8) {
			t.Errorf("level 1 after a set naming the peer: %v", got)
		}
		if !sameAddrs(mine.Slice(), 7, 3, 8) {
			t.Errorf("install changed the caller's set: %v", mine.Slice())
		}
		mine.Remove(7)
		if got := e.RefsAt(1).Slice(); !sameAddrs(got, 7, 8) {
			t.Errorf("level 1 shares storage with the caller's set: %v", got)
		}

		// Extend copies too.
		ext := addr.NewSet(3, 11)
		e.Extend(0, ext)
		ext.Remove(11)
		if got := e.RefsAt(3).Slice(); !sameAddrs(got, 11) {
			t.Errorf("level 3 after Extend: %v", got)
		}
	})
}

// TestSnapshotIsolatedFromInPlaceInstall: installs overwrite a level's
// storage in place, so a snapshot taken before must own its memory.
func TestSnapshotIsolatedFromInPlaceInstall(t *testing.T) {
	p := New(0)
	p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1, 2, 3))
	before := p.Snapshot()
	held := p.RefsAt(1)
	p.SetRefsAt(1, addr.NewSet(7, 8, 9)) // same length: reuses the storage
	if got := before.Refs[0].Slice(); !sameAddrs(got, 1, 2, 3) {
		t.Errorf("snapshot changed under an install: %v", got)
	}
	if got := held.Slice(); !sameAddrs(got, 1, 2, 3) {
		t.Errorf("Peer.RefsAt copy changed under an install: %v", got)
	}
	if got := p.RefsAt(1).Slice(); !sameAddrs(got, 7, 8, 9) {
		t.Errorf("level 1 = %v", got)
	}
}

// TestAllocBudgetInstall: reading a level as a view and installing a set no
// larger than the level has held are free — the two things a meeting does to
// a peer whose reference sets are full.
func TestAllocBudgetInstall(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	a, b := New(0), New(1)
	a.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1, 2, 3, 4))
	b.ExtendFrom(bitpath.Empty, 1, addr.NewSet(0, 5, 6, 7))
	if n := testing.AllocsPerRun(100, func() {
		EditPair(a, b, func(ea, eb Editor) {
			mine, theirs := ea.RefsAt(1), eb.RefsAt(1)
			ea.SetRefsAt(1, mine)
			eb.SetRefsAt(1, theirs)
		})
	}); n != 0 {
		t.Errorf("view + install under the pair lock allocates %v times, want 0", n)
	}
}
