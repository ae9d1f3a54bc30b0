package core

import (
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/trie"
)

func addrOfInt(i int) addr.Addr { return addr.Addr(i) }

func refsFrom(addrs ...addr.Addr) addr.Set { return addr.NewSet(addrs...) }

func TestMaintainDropsDeadReferences(t *testing.T) {
	rng := newRng(1)
	d := trie.BuildIdeal(64, 3, 4, rng)
	cfg := Config{MaxL: 3, RefMax: 4, RecMax: 2, RecFanout: 2}
	a := d.Peer(0)
	// Kill every reference of peer 0.
	for level := 1; level <= 3; level++ {
		for _, r := range a.RefsAt(level).Slice() {
			d.Peer(r).SetOnline(false)
		}
	}
	res := Maintain(d, cfg, a, MaintainOptions{DropOffline: true}, rng)
	if res.Dropped == 0 {
		t.Fatalf("nothing dropped: %+v", res)
	}
	for level := 1; level <= 3; level++ {
		for _, r := range a.RefsAt(level).Slice() {
			if !d.Online(r) {
				t.Errorf("dead reference %v survived at level %d", r, level)
			}
		}
	}
	if res.Probed != 12 || res.Messages < res.Probed {
		t.Errorf("res = %+v", res)
	}
}

func TestMaintainRefillsFromBuddies(t *testing.T) {
	rng := newRng(2)
	// 64 peers, depth 2, refmax 8: every leaf has 16 replicas, buddies
	// fully populated, but BuildIdeal stores all 8 refs. Shrink peer 0's
	// level-1 set to one live reference, then let refill restore it.
	d := trie.BuildIdeal(64, 2, 8, rng)
	cfg := Config{MaxL: 2, RefMax: 8, RecMax: 2, RecFanout: 2}
	a := d.Peer(0)
	refs := a.RefsAt(1)
	one := refs.Slice()[:1]
	a.SetRefsAt(1, refsFrom(one...))

	res := Maintain(d, cfg, a, MaintainOptions{Fetch: 2}, rng)
	if res.Added == 0 {
		t.Fatalf("refill added nothing: %+v", res)
	}
	got := a.RefsAt(1)
	if got.Len() <= 1 {
		t.Fatalf("level 1 not refilled: %d refs", got.Len())
	}
	// Everything refilled must satisfy the reference invariant.
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainRespectsRefmax(t *testing.T) {
	rng := newRng(3)
	d := trie.BuildIdeal(64, 2, 4, rng)
	cfg := Config{MaxL: 2, RefMax: 4, RecMax: 2, RecFanout: 2}
	MaintainAll(d, cfg, MaintainOptions{DropOffline: true, Fetch: 4}, rng)
	if got := maxRefsPerLevel(d); got > 4 {
		t.Errorf("refmax exceeded after maintenance: %d", got)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMaintainRepairsAfterDepartureWave(t *testing.T) {
	// The headline extension scenario: a third of the community departs
	// permanently. Without maintenance the reference fabric decays; with
	// maintenance (drop + buddy refill) health recovers.
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
		MaintainAll(d, cfg, MaintainOptions{DropOffline: true, Fetch: 3}, rng)
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
	cfg := Config{MaxL: 3, RefMax: 4, RecMax: 2, RecFanout: 2}
	run := func(maintain bool) int {
		rng := newRng(5)
		d := trie.BuildIdeal(240, 3, 4, rng)
		// Permanent departures with replacement: half the community.
		for i := 0; i < 120; i++ {
			ReplaceDeparted(d, addrOfInt(i*2))
		}
		if maintain {
			for round := 0; round < 3; round++ {
				MaintainAll(d, cfg, MaintainOptions{DropOffline: true, Fetch: 3}, rng)
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

func TestRefillExcludesDroppedSameRound(t *testing.T) {
	// Regression: a reference dropped as dead earlier in the round must
	// never be re-added from a fetched buddy set in the same round, even
	// if it would pass the refill probe (sessionful churn: the peer came
	// back between the probe and the fetch). refillLevel takes the
	// excluded set explicitly, so the race is testable deterministically:
	// the candidate is online and valid, only the exclusion keeps it out.
	rng := newRng(8)
	d := trie.BuildIdeal(16, 2, 4, rng)
	cfg := Config{MaxL: 2, RefMax: 4, RecMax: 2, RecFanout: 2}
	a := d.Peer(0)
	r0 := a.RefsAt(1).Slice()[0]
	buddies := d.Peer(r0).Buddies().Slice()
	if len(buddies) != 3 {
		t.Fatalf("fixture: expected 3 buddies of %v, got %v", r0, buddies)
	}
	b1 := buddies[0]
	if !Probe(d, a.Path(), 1, b1) {
		t.Fatalf("fixture: %v should be a live valid level-1 candidate", b1)
	}

	kept := refsFrom(r0)
	live := refsFrom(r0)
	var res MaintainResult

	// Sanity: with no exclusion the candidate IS added.
	probe := kept.Clone()
	refillLevel(d, cfg, a, 1, &probe, live, addr.Set{}, 1, rng, &res)
	if !probe.Contains(b1) {
		t.Fatalf("fixture: %v not refilled even without exclusion", b1)
	}

	// With b1 in the excluded (dropped-this-round) set it must stay out,
	// while its leaf mates still refill the level.
	res = MaintainResult{}
	refillLevel(d, cfg, a, 1, &kept, live, refsFrom(b1), 1, rng, &res)
	if kept.Contains(b1) {
		t.Errorf("excluded address %v re-added by refill", b1)
	}
	if res.Added != 2 || kept.Len() != 3 {
		t.Errorf("refill around exclusion: added %d, kept %v", res.Added, kept)
	}
}

func TestMaintainSessionfulChurn(t *testing.T) {
	// Sessionful churn end to end: a referenced peer goes offline, is
	// dropped (and not re-added the same round), then returns and is
	// legitimately re-learned in a later round — with exact message
	// accounting (every probe one message, every fetch round trip one
	// more) at each step.
	rng := newRng(9)
	d := trie.BuildIdeal(16, 2, 4, rng)
	cfg := Config{MaxL: 2, RefMax: 4, RecMax: 2, RecFanout: 2}
	a := d.Peer(0)

	// Pin peer 0's level-1 set to {r0, b1}: one stable reference and one
	// leaf mate of it that will churn. b1's leaf mates are the only
	// refill candidates reachable through r0, which makes every count
	// below deterministic.
	r0 := a.RefsAt(1).Slice()[0]
	buddies := d.Peer(r0).Buddies().Slice()
	b1 := buddies[0]
	a.SetRefsAt(1, refsFrom(r0, b1))
	d.Peer(b1).SetOnline(false) // session ends

	res1 := Maintain(d, cfg, a, MaintainOptions{DropOffline: true, Fetch: 2}, rng)
	if res1.Dropped != 1 {
		t.Fatalf("round 1 dropped = %d, want 1 (%+v)", res1.Dropped, res1)
	}
	if a.RefsAt(1).Contains(b1) {
		t.Fatal("round 1: dropped reference re-added in the same round")
	}
	// Level 1: 2 probes + 1 fetch (only r0 is live); refill adds r0's two
	// other leaf mates. Level 2: 4 probes, set full, no refill.
	if res1.Probed != 6 || res1.Messages != 7 || res1.Added != 2 {
		t.Errorf("round 1 accounting = %+v, want Probed 6, Messages 7, Added 2", res1)
	}

	// The peer returns: a later round may legitimately re-learn it (it is
	// a buddy of every live level-1 reference).
	d.Peer(b1).SetOnline(true)
	res2 := Maintain(d, cfg, a, MaintainOptions{DropOffline: true, Fetch: 2}, rng)
	if !a.RefsAt(1).Contains(b1) {
		t.Errorf("returned peer %v not re-learned: %v", b1, a.RefsAt(1))
	}
	// Level 1: 3 probes + 1 fetch (the first fetched leaf mate already
	// yields b1, filling the set to refmax). Level 2: 4 probes.
	if res2.Probed != 7 || res2.Messages != 8 || res2.Added != 1 || res2.Dropped != 0 {
		t.Errorf("round 2 accounting = %+v, want Probed 7, Messages 8, Added 1, Dropped 0", res2)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDetectsReplacedPeers(t *testing.T) {
	rng := newRng(6)
	d := trie.BuildIdeal(16, 2, 4, rng)
	a := d.Peer(0)
	self := a.Path()
	r := a.RefsAt(1).Slice()[0]
	if !Probe(d, self, 1, r) {
		t.Fatal("live valid reference failed probe")
	}
	// Replace the referenced peer: address resolves, state is gone.
	ReplaceDeparted(d, r)
	if Probe(d, self, 1, r) {
		t.Error("replaced peer passed probe")
	}
	d.Peer(r).SetOnline(false)
	if Probe(d, self, 1, r) {
		t.Error("offline peer passed probe")
	}
	if Probe(d, self, 1, 9999) {
		t.Error("dangling address passed probe")
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
