package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/trie"
)

func addrOfInt(i int) addr.Addr { return addr.Addr(i) }

func refsFrom(addrs ...addr.Addr) addr.Set { return addr.NewSet(addrs...) }

// count is how often s occurs in xs.
func count(xs []string, s string) int {
	n := 0
	for _, x := range xs {
		if x == s {
			n++
		}
	}
	return n
}

// repairOnce runs one round at peer a on the simulator driver.
func repairOnce(d *directory.Directory, refmax int, a *peer.Peer, seed int64) RepairRound {
	return Repair(a, refmax, RepairBudget, NewDirectoryCalls(d, newRng(seed)))
}

func TestMaintainDropsDeadReferences(t *testing.T) {
	rng := newRng(1)
	d := trie.BuildIdeal(64, 3, 4, rng)
	a := d.Peer(0)
	// Kill every reference of peer 0.
	for level := 1; level <= 3; level++ {
		for _, r := range a.RefsAt(level).Slice() {
			d.Peer(r).SetOnline(false)
		}
	}
	round := repairOnce(d, 4, a, 1)
	if count(round.Heals, repair.ActionEvictRef) == 0 {
		t.Fatalf("nothing dropped: %+v", round)
	}
	for level := 1; level <= 3; level++ {
		if a.RefsAt(level).Len() == 0 {
			t.Errorf("level %d left empty", level)
		}
		for _, r := range a.RefsAt(level).Slice() {
			if !d.Online(r) {
				t.Errorf("dead reference %v survived at level %d", r, level)
			}
		}
	}
	if round.Probed != 12 || round.Spent < round.Probed || round.Unhealed != 0 {
		t.Errorf("round = %+v", round)
	}
}

func TestMaintainRefillsFromBuddies(t *testing.T) {
	rng := newRng(2)
	// 64 peers, depth 2, refmax 8: every leaf has 16 replicas, buddies
	// fully populated, but BuildIdeal stores all 8 refs. Shrink peer 0's
	// level-1 set to one live reference, then let refill restore it.
	d := trie.BuildIdeal(64, 2, 8, rng)
	a := d.Peer(0)
	one := a.RefsAt(1).Slice()[:1]
	a.SetRefsAt(1, refsFrom(one...))

	round := repairOnce(d, 8, a, 2)
	if count(round.Heals, repair.ActionRefillRef) == 0 {
		t.Fatalf("refill added nothing: %+v", round)
	}
	if got := a.RefsAt(1); got.Len() != 8 {
		t.Fatalf("level 1 not refilled to refmax: %d refs", got.Len())
	}
	// Everything refilled must satisfy the reference invariant.
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainRespectsRefmax(t *testing.T) {
	rng := newRng(3)
	d := trie.BuildIdeal(64, 2, 4, rng)
	for i := 0; i < 16; i++ {
		d.Peer(addrOfInt(i * 4)).SetOnline(false)
	}
	RepairAll(d, 4, rng)
	if got := maxRefsPerLevel(d); got > 4 {
		t.Errorf("refmax exceeded after maintenance: %d", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainRepairsAfterDepartureWave(t *testing.T) {
	// The headline extension scenario: a third of the community departs.
	// Without repair the reference fabric decays; with it (evict + buddy
	// refill) health recovers.
	rng := newRng(4)
	cfg := Config{MaxL: 3, RefMax: 6, RecMax: 2, RecFanout: 2}
	d := trie.BuildIdeal(240, 3, 6, rng)

	for i := 0; i < 80; i++ {
		d.Peer(addrOfInt(i * 3)).SetOnline(false)
	}
	before := MeasureRefHealth(d, cfg)
	if before.AliveFraction > 0.8 {
		t.Fatalf("departure wave too weak: %+v", before)
	}

	for round := 0; round < 3; round++ {
		RepairAll(d, cfg.RefMax, rng)
	}
	after := MeasureRefHealth(d, cfg)
	if after.AliveFraction < 0.99 {
		t.Errorf("maintenance did not restore liveness: %+v → %+v", before, after)
	}
	if after.Fill < before.Fill*0.8 {
		t.Errorf("maintenance drained reference sets: fill %v → %v", before.Fill, after.Fill)
	}
}

func TestMaintainImprovesSearchAfterChurn(t *testing.T) {
	run := func(maintain bool) int {
		rng := newRng(5)
		d := trie.BuildIdeal(240, 3, 4, rng)
		// Permanent departures with replacement: half the community.
		for i := 0; i < 120; i++ {
			d.Replace(addrOfInt(i * 2))
		}
		if maintain {
			for round := 0; round < 3; round++ {
				RepairAll(d, 4, rng)
			}
		}
		succ := 0
		for i := 0; i < 300; i++ {
			key := bitpath.Random(rng, 3)
			start := d.RandomOnlinePeer(rng)
			// Survivors only: fresh replacements have empty paths and
			// would trivially "cover" everything.
			for start.PathLen() == 0 {
				start = d.RandomOnlinePeer(rng)
			}
			res := Query(d, start, key, rng)
			if res.Found && d.Peer(res.Peer).PathLen() > 0 {
				succ++
			}
		}
		return succ
	}
	plain := run(false)
	repaired := run(true)
	if repaired < plain {
		t.Errorf("maintenance reduced search success: %d vs %d", repaired, plain)
	}
}

// returningCalls is the simulator driver with sessionful churn timed into
// the round: the peer back is brought online the moment its probe has
// failed, between the probe and the refill that could readmit it.
type returningCalls struct {
	*DirectoryCalls
	back *peer.Peer
}

func (c returningCalls) Info(to addr.Addr, self bitpath.Path, level int) (bitpath.Path, addr.Set, bool) {
	path, buddies, ok := c.DirectoryCalls.Info(to, self, level)
	if to == c.back.Addr() {
		c.back.SetOnline(true)
	}
	return path, buddies, ok
}

func TestRefillExcludesDroppedSameRound(t *testing.T) {
	// Regression: a reference evicted as dead earlier in the round must
	// never be re-added from a fetched buddy set in the same round, even if
	// it would pass the refill probe (sessionful churn: the peer came back
	// between the probe and the fetch).
	fixture := func() (*directory.Directory, *peer.Peer, addr.Addr, addr.Addr) {
		d := trie.BuildIdeal(16, 2, 4, newRng(8))
		a := d.Peer(0)
		r0 := a.RefsAt(1).Slice()[0]
		buddies := d.Peer(r0).Buddies().Slice()
		if len(buddies) != 3 {
			t.Fatalf("fixture: expected 3 buddies of %v, got %v", r0, buddies)
		}
		return d, a, r0, buddies[0]
	}

	// Sanity: a live leaf mate of r0 missing from the level IS refilled.
	d, a, r0, b1 := fixture()
	a.SetRefsAt(1, refsFrom(r0))
	repairOnce(d, 4, a, 8)
	if !a.RefsAt(1).Contains(b1) {
		t.Fatalf("fixture: %v not refilled even without exclusion", b1)
	}

	// Evicted dead in this round, b1 must stay out although it answers by
	// the time the refill reaches it, while its leaf mates still refill.
	d, a, r0, b1 = fixture()
	a.SetRefsAt(1, refsFrom(r0, b1))
	d.Peer(b1).SetOnline(false)
	round := Repair(a, 4, RepairBudget, returningCalls{NewDirectoryCalls(d, newRng(8)), d.Peer(b1)})
	if !d.Peer(b1).Online() {
		t.Fatal("fixture: the returning peer was never probed")
	}
	if a.RefsAt(1).Contains(b1) {
		t.Errorf("excluded address %v re-added by refill", b1)
	}
	if added := count(round.Heals, repair.ActionRefillRef); added != 2 || a.RefsAt(1).Len() != 3 {
		t.Errorf("refill around exclusion: added %d, kept %v", added, a.RefsAt(1))
	}
}

func TestMaintainSessionfulChurn(t *testing.T) {
	// Sessionful churn end to end: a referenced peer goes offline, is
	// dropped (and not re-added the same round), then returns and is
	// legitimately re-learned in a later round — with exact message
	// accounting at each step.
	d := trie.BuildIdeal(16, 2, 4, newRng(9))
	a := d.Peer(0)

	// Pin peer 0's level-1 set to {r0, b1}: one stable reference and one
	// leaf mate of it that will churn. b1's leaf mates are the only refill
	// candidates reachable through r0, which makes every count below
	// deterministic.
	r0 := a.RefsAt(1).Slice()[0]
	b1 := d.Peer(r0).Buddies().Slice()[0]
	a.SetRefsAt(1, refsFrom(r0, b1))
	d.Peer(b1).SetOnline(false) // session ends

	round1 := repairOnce(d, 4, a, 9)
	if got := count(round1.Heals, repair.ActionEvictRef); got != 1 {
		t.Fatalf("round 1 dropped = %d, want 1 (%+v)", got, round1)
	}
	if a.RefsAt(1).Contains(b1) {
		t.Fatal("round 1: dropped reference re-added in the same round")
	}
	// Three health digests from peer 0's buddies. Level 1: 2 probes, then
	// 2 refill probes of r0's other leaf mates, both added. Level 2: 4
	// probes, set full, no refill.
	if added := count(round1.Heals, repair.ActionRefillRef); round1.Probed != 8 || round1.Spent != 11 || added != 2 {
		t.Errorf("round 1: probed %d, spent %d, added %d; want 8, 11, 2", round1.Probed, round1.Spent, added)
	}

	// The peer returns: a later round may legitimately re-learn it (it is a
	// buddy of every live level-1 reference).
	d.Peer(b1).SetOnline(true)
	round2 := repairOnce(d, 4, a, 9)
	if !a.RefsAt(1).Contains(b1) {
		t.Errorf("returned peer %v not re-learned: %v", b1, a.RefsAt(1))
	}
	// Level 1: 3 probes and one refill probe (the fetched leaf mate's list
	// yields b1, filling the set to refmax). Level 2: 4 probes.
	added, dropped := count(round2.Heals, repair.ActionRefillRef), count(round2.Heals, repair.ActionEvictRef)
	if round2.Probed != 8 || round2.Spent != 11 || added != 1 || dropped != 0 {
		t.Errorf("round 2: probed %d, spent %d, added %d, dropped %d; want 8, 11, 1, 0", round2.Probed, round2.Spent, added, dropped)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDetectsReplacedPeers(t *testing.T) {
	d := trie.BuildIdeal(16, 2, 4, newRng(6))
	a := d.Peer(0)
	r := a.RefsAt(1).Slice()[0]
	calls := NewDirectoryCalls(d, newRng(6))
	if path, _, ok := calls.Info(r, a.Path(), 1); !ok || !repair.ValidRef(a.Path(), 1, path) {
		t.Fatal("live valid reference failed probe")
	}
	// Replace the referenced peer: the address answers, its state is gone,
	// and the round evicts it as a wrong-side reference.
	d.Replace(r)
	round := Repair(a, 4, RepairBudget, calls)
	if a.RefsAt(1).Contains(r) {
		t.Errorf("replaced peer %v kept at level 1: %v", r, a.RefsAt(1))
	}
	if count(round.Faults, repair.FaultWrongSide) != 1 {
		t.Errorf("faults %v, want one %s", round.Faults, repair.FaultWrongSide)
	}
	d.Peer(r).SetOnline(false)
	if _, _, ok := calls.Info(r, a.Path(), 1); ok {
		t.Error("offline peer answered a probe")
	}
	if _, _, ok := calls.Info(9999, a.Path(), 1); ok {
		t.Error("dangling address answered a probe")
	}
}

func TestMeasureRefHealth(t *testing.T) {
	rng := newRng(7)
	cfg := Config{MaxL: 2, RefMax: 4, RecMax: 2, RecFanout: 2}
	d := trie.BuildIdeal(32, 2, 4, rng)
	h := MeasureRefHealth(d, cfg)
	if h.AliveFraction != 1 || h.Fill != 1 || h.Refs != 32*2*4 {
		t.Fatalf("fresh grid health = %+v", h)
	}
	d.SetAllOnline(false)
	h = MeasureRefHealth(d, cfg)
	if h.AliveFraction != 0 {
		t.Errorf("all-offline alive fraction = %v", h.AliveFraction)
	}
}

// peerOn returns the first peer of d on path.
func peerOn(t *testing.T, d *directory.Directory, path string) *peer.Peer {
	t.Helper()
	for _, p := range d.All() {
		if p.Path() == bitpath.MustParse(path) {
			return p
		}
	}
	t.Fatalf("no peer on %s", path)
	return nil
}

func TestRepairRehomesOrphansAndKeepsShortKeys(t *testing.T) {
	// Peer a on 000 holds an entry under 0, a key its path extends, and a
	// misdirected one under 110. The round rehomes the second and keeps the
	// first, which Evict takes out along with it.
	d := trie.BuildIdeal(64, 3, 4, newRng(10))
	a := peerOn(t, d, "000")
	short := store.Entry{Key: bitpath.MustParse("0"), Name: "short", Version: 1}
	orphan := store.Entry{Key: bitpath.MustParse("110"), Name: "orphan", Version: 1}
	a.Store().Apply(short)
	a.Store().Apply(orphan)
	round := repairOnce(d, 4, a, 10)
	if _, ok := a.Store().Get(short.Key, short.Name); !ok {
		t.Errorf("the entry under 0 is gone from peer %v", a.Addr())
	}
	if _, ok := a.Store().Get(orphan.Key, orphan.Name); ok {
		t.Errorf("the entry under 110 stayed at peer %v", a.Addr())
	}
	if count(round.Heals, repair.ActionRehomeEntry) != 1 || round.Unhealed != 0 {
		t.Fatalf("round = %+v, want one rehome and nothing unhealed", round)
	}
	for i, h := range round.Heals {
		if to := d.Peer(round.Spans[i].Ref); h == repair.ActionRehomeEntry && to.Path() != orphan.Key {
			t.Errorf("rehomed to %v on %s, want a peer on 110", to.Addr(), to.Path())
		}
	}
}

func TestRepairKeepsAnOrphanWhoseSearchEndsAtSelf(t *testing.T) {
	// A corrupted table routes a search for 100 from peer a (000) through b
	// (101), whose level-3 reference is a, back to a, which matches the last
	// key bit there: the entry has nowhere else to go and stays, unhealed.
	d := trie.BuildIdeal(64, 3, 4, newRng(11))
	a, b := peerOn(t, d, "000"), peerOn(t, d, "101")
	a.SetRefsAt(1, addr.NewSet(b.Addr()))
	b.SetRefsAt(3, addr.NewSet(a.Addr()))
	e := store.Entry{Key: bitpath.MustParse("100"), Name: "stuck", Version: 1}
	a.Store().Apply(e)
	round := repairOnce(d, 4, a, 11)
	if _, ok := a.Store().Get(e.Key, e.Name); !ok {
		t.Errorf("the entry under 100 is gone from peer %v", a.Addr())
	}
	if count(round.Faults, repair.FaultOrphanEntry) != 1 || count(round.Heals, repair.ActionEvictEntry) != 0 || round.Unhealed != 1 {
		t.Fatalf("round = %+v, want the orphan found, not evicted, and unhealed", round)
	}
}

// rawTerm is an entry's share of the store fingerprint as FNV-1a alone gives
// it, before the store mixes it.
func rawTerm(e store.Entry) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d", e.Key, e.Name, int64(e.Holder), e.Version)
	return h.Sum64()
}

func TestRepairHealsCrosswiseStaleReplicas(t *testing.T) {
	// Peer a on 000 holds A@1 and B@2, its seven buddies A@2 and B@1: each
	// side is stale in one entry. The names are chosen so that the raw FNV-1a
	// sums of the two contents collide, which a fingerprint summing raw terms
	// cannot tell apart. The round must see the divergence, pull the fresher A
	// and push B, and leave the group on one fingerprint.
	d := trie.BuildIdeal(64, 3, 4, newRng(12))
	a := peerOn(t, d, "000")
	at := func(e store.Entry, v uint64) store.Entry { e.Version = v; return e }
	var x, y store.Entry
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("no crosswise pair whose raw sums collide")
		}
		x = store.Entry{Key: a.Path(), Name: fmt.Sprintf("cross-a%d", i), Holder: addr.Addr(1 + i%3)}
		y = store.Entry{Key: a.Path(), Name: fmt.Sprintf("cross-b%d", i), Holder: addr.Addr(1 + i%5)}
		if rawTerm(at(x, 2))+rawTerm(at(y, 1)) == rawTerm(at(x, 1))+rawTerm(at(y, 2)) {
			break
		}
	}
	var group []*peer.Peer
	for _, p := range d.All() {
		if p.Path() != a.Path() {
			continue
		}
		group = append(group, p)
		if p == a {
			p.Store().Apply(at(x, 1))
			p.Store().Apply(at(y, 2))
		} else {
			p.Store().Apply(at(x, 2))
			p.Store().Apply(at(y, 1))
		}
	}
	if len(group) != 8 {
		t.Fatalf("%d peers on %s, want 8", len(group), a.Path())
	}
	round := repairOnce(d, 4, a, 12)
	if count(round.Faults, repair.FaultDivergedReplica) == 0 {
		t.Fatalf("round = %+v, want a diverged replica", round)
	}
	if pulls, pushes := count(round.Heals, repair.ActionSyncPull), count(round.Heals, repair.ActionSyncPush); pulls != 1 || pushes != 7 {
		t.Errorf("%d pulls and %d pushes, want 1 and 7", pulls, pushes)
	}
	want := a.Store().Summary().Hash
	for _, p := range group {
		if h := p.Store().Summary().Hash; h != want {
			t.Errorf("peer %v fingerprint %#x, peer %v %#x", p.Addr(), h, a.Addr(), want)
		}
		for _, e := range []store.Entry{x, y} {
			if got, ok := p.Store().Get(e.Key, e.Name); !ok || got.Version != 2 {
				t.Errorf("peer %v holds %v, %v; want version 2", p.Addr(), got, ok)
			}
		}
	}
}
