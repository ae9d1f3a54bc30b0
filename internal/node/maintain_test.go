package node

import (
	"math/rand"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/repair"
	"pgrid/internal/wire"
)

// Reference maintenance is the repairer's phase 2; these cases drive one
// Repairer.Tick and check the reference table it leaves behind. Its policy
// differs from the Node.Maintain loop these cases were written for in one
// place: a level whose references ALL fail the probe in the same round is
// kept as it is and counted in Status.LastUnhealed (likelier a partition
// than simultaneous churn) unless a search routed through the rest of the
// structure finds the complementary subtree, which refutes the partition
// and licenses the eviction. A dead reference beside a live one goes at
// once, as before.

// checkDeadRefHandled asserts the outcome of one repair round for a
// reference that was dead during it.
func checkDeadRefHandled(t *testing.T, n *Node, st repair.Status, level int, dead addr.Addr, hadLiveSibling bool) {
	t.Helper()
	refs := n.Peer().RefsAt(level)
	switch {
	case hadLiveSibling && refs.Contains(dead):
		t.Errorf("dead reference %v survived at level %d beside a live one: %v", dead, level, refs.String())
	case !hadLiveSibling && refs.Contains(dead) && st.LastUnhealed == 0:
		t.Errorf("level %d kept its only, dead reference %v but the round reports nothing unhealed", level, dead)
	case !hadLiveSibling && !refs.Contains(dead) && refs.Len() == 0:
		t.Errorf("level %d evicted its only reference %v without a search refill", level, dead)
	}
}

func TestNodeMaintainDropsUnreachableRefs(t *testing.T) {
	c := NewCluster(64, smallCfg(), 21)
	rng := rand.New(rand.NewSource(21))
	buildCluster(t, c, 0.99*4, 80000, rng)

	n := c.Nodes[0]
	// Take one referenced peer per level offline. A peer referenced at
	// two levels cannot exist (the levels cover disjoint subtrees), so the
	// other references of a level stay live.
	killed := map[int]addr.Addr{}
	siblings := map[int]bool{}
	probes := 0
	for level := 1; level <= n.Path().Len(); level++ {
		refs := n.Peer().RefsAt(level).Sorted()
		probes += len(refs)
		if len(refs) > 0 {
			killed[level] = refs[0]
			siblings[level] = len(refs) > 1
			c.Nodes[refs[0]].SetOnline(false)
		}
	}
	r := NewRepairer(n, time.Second, 21)
	r.budget = 256
	r.Tick()
	st := r.Status()
	evicted := 0
	for level, a := range killed {
		checkDeadRefHandled(t, n, st, level, a, siblings[level])
		if !n.Peer().RefsAt(level).Contains(a) {
			evicted++
		}
	}
	if evicted == 0 {
		t.Fatalf("no dead reference evicted: %+v", st)
	}
	if got := tallyOf(st.Faults, repair.FaultDeadRef); got != int64(evicted) {
		t.Errorf("dead-ref faults = %d, want %d (one per evicted reference)", got, evicted)
	}
	if st.Messages < int64(probes) {
		t.Errorf("round spent %d messages for %d reference probes", st.Messages, probes)
	}
}

func TestNodeMaintainRefillsFromBuddies(t *testing.T) {
	// Hand-build a 6-node cluster where buddies exist: nodes 0,1,2 at path
	// "0" (buddies), nodes 3,4,5 at "1" (buddies). Node 0 keeps only one
	// level-1 reference; maintenance must refill from that reference's
	// buddies.
	cfg := smallCfg()
	cfg.MaxL = 1
	c := NewCluster(6, cfg, 22)
	for i, n := range c.Nodes {
		bit := byte(0)
		if i >= 3 {
			bit = 1
		}
		if !n.Peer().ExtendFrom(bitpath.Empty, bit, addr.NewSet()) {
			t.Fatal("fixture extend failed")
		}
	}
	for i, n := range c.Nodes {
		for j := range c.Nodes {
			if (i < 3) == (j < 3) && i != j {
				n.Peer().AddBuddy(addr.Addr(j))
			}
		}
	}
	n0 := c.Nodes[0]
	n0.Peer().SetRefsAt(1, addr.NewSet(3))

	r := NewRepairer(n0, time.Second, 22)
	r.Tick()
	if got := tallyOf(r.Status().Heals, repair.ActionRefillRef); got != 2 {
		t.Fatalf("refill-ref heals = %d, want 2: %+v", got, r.Status())
	}
	refs := n0.Peer().RefsAt(1)
	if refs.Len() < 3 || !refs.Contains(4) || !refs.Contains(5) {
		t.Errorf("refs after refill = %v", refs.String())
	}
	if refs.Len() > cfg.RefMax {
		t.Errorf("refmax exceeded: %d", refs.Len())
	}
}

// flapTransport fails the first `fails` calls to each address in down,
// then passes everything through — a peer whose session ends just before
// the probe and restarts right after (sessionful churn inside one
// maintenance round).
type flapTransport struct {
	inner Transport
	down  map[addr.Addr]int
}

func (f *flapTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	if n := f.down[to]; n > 0 {
		f.down[to] = n - 1
		return nil, ErrOffline
	}
	return f.inner.Call(to, msg)
}

func TestNodeMaintainNoSameRoundReadd(t *testing.T) {
	// Regression for the refill-resurrection bug: node 0 references peer 4,
	// whose session flaps — the probe fails, but by the time refill fetches
	// reference sets the peer answers again, and it appears in a live
	// reference's buddy list. The round must still evict it (the heal tally
	// and the final set must agree); the NEXT round may re-learn it.
	cfg := smallCfg()
	cfg.MaxL = 1
	c := NewCluster(6, cfg, 24)
	for i, n := range c.Nodes {
		bit := byte(0)
		if i >= 3 {
			bit = 1
		}
		if !n.Peer().ExtendFrom(bitpath.Empty, bit, addr.NewSet()) {
			t.Fatal("fixture extend failed")
		}
	}
	for i, n := range c.Nodes {
		for j := range c.Nodes {
			if (i < 3) == (j < 3) && i != j {
				n.Peer().AddBuddy(addr.Addr(j))
			}
		}
	}
	n0 := c.Nodes[0]
	n0.Peer().SetRefsAt(1, addr.NewSet(3, 4))
	n0.tr = &flapTransport{inner: c.Transport, down: map[addr.Addr]int{4: 1}}

	r := NewRepairer(n0, time.Second, 24)
	r.Tick()
	if got := tallyOf(r.Status().Heals, repair.ActionEvictRef); got != 1 {
		t.Fatalf("flapping peer not evicted: %+v", r.Status())
	}
	refs := n0.Peer().RefsAt(1)
	if refs.Contains(4) {
		t.Fatalf("dropped reference 4 re-added in the same round: %v", refs.String())
	}
	if !refs.Contains(5) {
		t.Errorf("refill skipped the legitimate candidate 5: %v", refs.String())
	}

	// Next round the peer is stably back: re-learning it is correct.
	r.Tick()
	if st := r.Status(); st.LastFaults != 0 || tallyOf(st.Heals, repair.ActionEvictRef) != 1 {
		t.Fatalf("stable round evicted something: %+v", st)
	}
	if !n0.Peer().RefsAt(1).Contains(4) {
		t.Errorf("returned peer 4 not re-learned next round: %v", n0.Peer().RefsAt(1).String())
	}
}

func TestNodeMaintainDetectsReplacedPeer(t *testing.T) {
	cfg := smallCfg()
	cfg.MaxL = 1
	c := NewCluster(2, cfg, 23)
	c.Nodes[0].Exchange(1)
	if !c.Nodes[0].Peer().RefsAt(1).Contains(1) {
		t.Fatal("fixture: no reference")
	}
	// "Replace" node 1: a blank node takes over the address.
	replacement := New(1, cfg, c.Transport, 99)
	c.Transport.Register(replacement)

	r := NewRepairer(c.Nodes[0], time.Second, 23)
	r.Tick()
	if got := tallyOf(r.Status().Faults, repair.FaultWrongSide); got != 1 {
		t.Fatalf("replaced peer not detected as a wrong-side reference: %+v", r.Status())
	}
	if c.Nodes[0].Peer().RefsAt(1).Contains(1) {
		t.Error("stale reference to replaced peer survived")
	}
}
