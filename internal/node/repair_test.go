package node

import (
	"context"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// repairFixture hand-builds six nodes in two replica groups: 0,1,2 at
// path "0", 3,4,5 at "1", full buddy lists within a group and full
// cross-references — a minimal community where every repair phase has
// something to vote with.
func repairFixture(t *testing.T, seed int64) *Cluster {
	t.Helper()
	cfg := smallCfg()
	cfg.MaxL = 1
	c := NewCluster(6, cfg, seed)
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
		refs := addr.Set{}
		for j := range c.Nodes {
			if i == j {
				continue
			}
			if (i < 3) == (j < 3) {
				n.Peer().AddBuddy(addr.Addr(j))
			} else {
				refs.Add(addr.Addr(j))
			}
		}
		n.Peer().SetRefsAt(1, refs)
	}
	return c
}

func tallyOf(ts []repair.Tally, name string) int64 {
	for _, t := range ts {
		if t.Name == name {
			return t.N
		}
	}
	return 0
}

func TestRepairerEvictsWrongSideRef(t *testing.T) {
	c := repairFixture(t, 31)
	n0 := c.Nodes[0]
	n0.Peer().AddRefAt(1, 1) // same-side peer: violates the prefix invariant

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 1)
	r.Tick()

	refs := n0.Peer().RefsAt(1)
	if refs.Contains(1) {
		t.Fatalf("wrong-side reference survived: %v", refs.String())
	}
	if !refs.Contains(3) || !refs.Contains(4) || !refs.Contains(5) {
		t.Errorf("legitimate references lost: %v", refs.String())
	}
	st := r.Status()
	if !st.Enabled || st.Rounds != 1 {
		t.Fatalf("status = %+v", st)
	}
	if got := tallyOf(st.Faults, repair.FaultWrongSide); got != 1 {
		t.Errorf("wrong-side faults = %d, want 1", got)
	}
	if got := tallyOf(st.Heals, repair.ActionEvictRef); got != 1 {
		t.Errorf("evict-ref heals = %d, want 1", got)
	}
	if st.LastUnhealed != 0 {
		t.Errorf("unhealed = %d, want 0", st.LastUnhealed)
	}
}

func TestRepairerAdoptsMajorityPath(t *testing.T) {
	c := repairFixture(t, 32)
	n0 := c.Nodes[0]
	// Corrupt node 0's path to the complement. By the flipped path its new
	// reference set even looks valid (the old buddies are now "the other
	// side"), so only the replica-group vote can catch the corruption.
	if err := n0.Peer().Restore(peer.Snapshot{
		Addr: 0, Path: "1", Refs: []addr.Set{addr.NewSet(1, 2)},
		Buddies: addr.NewSet(1, 2), Online: true,
	}); err != nil {
		t.Fatal(err)
	}

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 2)
	r.Tick()

	if got := n0.Path(); got != "0" {
		t.Fatalf("path after repair = %q, want %q (majority of replica group)", got, "0")
	}
	refs := n0.Peer().RefsAt(1)
	if refs.Len() == 0 {
		t.Fatal("level 1 left starved after path adoption")
	}
	for _, a := range refs.Slice() {
		if a != 3 && a != 4 && a != 5 {
			t.Errorf("invalid reference %v after search refill", a)
		}
	}
	st := r.Status()
	if tallyOf(st.Faults, repair.FaultPathDrift) != 1 {
		t.Errorf("faults = %+v, want one path-drift", st.Faults)
	}
	if tallyOf(st.Heals, repair.ActionAdoptPath) != 1 || tallyOf(st.Heals, repair.ActionSearchRefill) != 1 {
		t.Errorf("heals = %+v, want adopt-path and search-refill", st.Heals)
	}
	if got := repair.State(st.Enabled, st.LastHeals, st.LastUnhealed); got != "healthy" {
		t.Errorf("state = %q, want healthy", got)
	}
}

func TestRepairerDropsOrphanBuddy(t *testing.T) {
	c := repairFixture(t, 33)
	n0 := c.Nodes[0]
	n0.Peer().AddBuddy(3) // cross-partition buddy link

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 3)
	r.Tick()

	if n0.Peer().Buddies().Contains(3) {
		t.Fatalf("orphan replica link survived: %v", n0.Peer().Buddies().String())
	}
	if !n0.Peer().Buddies().Contains(1) || !n0.Peer().Buddies().Contains(2) {
		t.Errorf("legitimate buddies lost: %v", n0.Peer().Buddies().String())
	}
	st := r.Status()
	if tallyOf(st.Faults, repair.FaultOrphanReplica) != 1 || tallyOf(st.Heals, repair.ActionDropBuddy) != 1 {
		t.Errorf("faults = %+v, heals = %+v", st.Faults, st.Heals)
	}
}

func TestRepairerSyncsDivergedReplica(t *testing.T) {
	c := repairFixture(t, 34)
	// Nodes 1 and 2 hold an entry node 0 lost: the group majority
	// fingerprint steers node 0 to pull the partition back.
	e := store.Entry{Key: bitpath.MustParse("01"), Name: "x", Holder: 1, Version: 1}
	c.Nodes[1].Store().Apply(e)
	c.Nodes[2].Store().Apply(e)
	n0 := c.Nodes[0]

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 4)
	r.Tick()

	if _, ok := n0.Store().Get(e.Key, e.Name); !ok {
		t.Fatal("diverged replica did not pull the majority's entries")
	}
	st := r.Status()
	if tallyOf(st.Faults, repair.FaultDivergedReplica) != 1 || tallyOf(st.Heals, repair.ActionSyncPull) != 1 {
		t.Errorf("faults = %+v, heals = %+v", st.Faults, st.Heals)
	}
	if got := n0.Store().Summary().Hash; got != c.Nodes[1].Store().Summary().Hash {
		t.Errorf("fingerprints still diverge after sync")
	}
}

func TestRepairerPushesToWipedReplica(t *testing.T) {
	c := repairFixture(t, 35)
	// Nodes 0 and 2 hold the partition; node 1 was wiped. Node 0 sits on
	// the majority fingerprint and pushes the entries at the wiped member.
	e := store.Entry{Key: bitpath.MustParse("00"), Name: "y", Holder: 0, Version: 2}
	c.Nodes[0].Store().Apply(e)
	c.Nodes[2].Store().Apply(e)
	n0 := c.Nodes[0]

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 5)
	r.Tick()

	if _, ok := c.Nodes[1].Store().Get(e.Key, e.Name); !ok {
		t.Fatal("wiped replica did not receive pushed entries")
	}
	st := r.Status()
	if tallyOf(st.Faults, repair.FaultDivergedReplica) != 1 || tallyOf(st.Heals, repair.ActionSyncPush) != 1 {
		t.Errorf("faults = %+v, heals = %+v", st.Faults, st.Heals)
	}
}

func TestRepairerEvictsAndRehomesOrphanEntries(t *testing.T) {
	c := repairFixture(t, 36)
	n0 := c.Nodes[0]
	// An entry filed under the complement partition: node 0 is not
	// responsible for it and no search will ever find it here.
	e := store.Entry{Key: bitpath.MustParse("10"), Name: "z", Holder: 0, Version: 1}
	n0.Store().Apply(e)

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 6)
	r.Tick()

	if n0.Store().CountOutside(n0.Path()) != 0 {
		t.Fatal("orphan entry survived eviction")
	}
	found := false
	for _, i := range []int{3, 4, 5} {
		if _, ok := c.Nodes[i].Store().Get(e.Key, e.Name); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("orphan entry was not rehomed to the responsible partition")
	}
	st := r.Status()
	if tallyOf(st.Faults, repair.FaultOrphanEntry) != 1 {
		t.Errorf("faults = %+v, want one orphan-entry", st.Faults)
	}
	if tallyOf(st.Heals, repair.ActionEvictEntry) != 1 || tallyOf(st.Heals, repair.ActionRehomeEntry) != 1 {
		t.Errorf("heals = %+v, want evict-entry and rehome-entry", st.Heals)
	}
}

func TestRepairerMassDeathKeepsRefs(t *testing.T) {
	c := repairFixture(t, 37)
	n0 := c.Nodes[0]
	for _, i := range []int{3, 4, 5} {
		c.Nodes[i].SetOnline(false)
	}

	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 7)
	r.Tick()

	// Every reference at the level died at once — far likelier a partition
	// than simultaneous churn, so the round must NOT drain the level.
	refs := n0.Peer().RefsAt(1)
	if refs.Len() != 3 {
		t.Fatalf("mass-death level drained to %v", refs.String())
	}
	st := r.Status()
	if tallyOf(st.Faults, repair.FaultStarvedLevel) != 1 {
		t.Errorf("faults = %+v, want one starved-level", st.Faults)
	}
	if st.LastUnhealed == 0 {
		t.Error("starved level not counted unhealed")
	}
	if got := repair.State(st.Enabled, st.LastHeals, st.LastUnhealed); got != "stuck" {
		t.Errorf("state = %q, want stuck", got)
	}

	// The partition heals: the next round finds the refs valid again and
	// the verdict flips back without any repair action.
	for _, i := range []int{3, 4, 5} {
		c.Nodes[i].SetOnline(true)
	}
	r.Tick()
	st = r.Status()
	if st.LastFaults != 0 || st.LastUnhealed != 0 {
		t.Errorf("post-heal round: %+v", st)
	}
}

func TestRepairEndToEnd(t *testing.T) {
	c := repairFixture(t, 38)
	client := NewClient(c.Transport, 99)
	status := wire.ObserveReq{Asks: wire.AskRepair}

	// A node without a repairer answers, with Enabled=false — "repair off"
	// is distinguishable from "peer gone".
	st := observe(t, client, 3, status).Repair
	if st.Enabled {
		t.Fatal("repairless node reports Enabled=true")
	}

	n0 := c.Nodes[0]
	tel := telemetry.New(0)
	n0.SetTelemetry(tel)
	NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 8)
	n0.Peer().AddRefAt(1, 2) // plant one wrong-side ref for the round to heal

	st = observe(t, client, 0, wire.ObserveReq{Asks: wire.AskRepair | wire.AskRepairNow}).Repair
	if !st.Enabled || st.Rounds != 1 {
		t.Fatalf("triggered status = %+v", st)
	}
	if st.TotalFaults() < 1 || st.TotalHeals() < 1 {
		t.Fatalf("triggered round found %d faults, %d heals", st.TotalFaults(), st.TotalHeals())
	}
	if got := counterVal(t, tel, "pgrid_repair_rounds_total"); got != 1 {
		t.Errorf("pgrid_repair_rounds_total = %d, want 1", got)
	}
	if got := counterVal(t, tel, `pgrid_repair_fault_total{class="wrong-side-ref"}`); got != 1 {
		t.Errorf("wrong-side fault counter = %d, want 1", got)
	}
	if got := counterVal(t, tel, `pgrid_repair_heal_total{action="evict-ref"}`); got != 1 {
		t.Errorf("evict-ref heal counter = %d, want 1", got)
	}
	if counterVal(t, tel, "pgrid_repair_messages_total") == 0 {
		t.Error("repair messages not counted")
	}

	// A second, untriggered fetch must not run another round.
	st = observe(t, client, 0, status).Repair
	if st.Rounds != 1 {
		t.Errorf("untriggered fetch ran a round: %+v", st)
	}
}

// TestRepairerRoundFeedsHealth pins that a repair round is a probe round:
// a node that runs only the repairer must report its rounds and liveness
// to `pgridctl health`, the crawl and the pgrid_health_* gauges.
func TestRepairerRoundFeedsHealth(t *testing.T) {
	c := repairFixture(t, 41)
	n0 := c.Nodes[0]
	tel := telemetry.New(0)
	n0.SetTelemetry(tel)
	r := NewRepairer(n0, time.Second, RepairConfig{Budget: 64}, 10)

	n0.SetOnline(false)
	r.Tick()
	if got := n0.HealthTracker().Rounds(); got != 0 {
		t.Fatalf("an offline node's skipped round counted: rounds = %d", got)
	}
	n0.SetOnline(true)

	r.Tick()
	if got := n0.HealthTracker().Rounds(); got != 1 {
		t.Fatalf("rounds after one repair round = %d, want 1", got)
	}
	if got := counterVal(t, tel, "pgrid_health_probe_rounds"); got != 1 {
		t.Errorf("pgrid_health_probe_rounds = %d, want 1", got)
	}
	if got := counterVal(t, tel, "pgrid_health_liveness_permille"); got != 1000 {
		t.Errorf("pgrid_health_liveness_permille = %d, want 1000 (three live references probed)", got)
	}
	if rounds := observe(t, NewClient(c.Transport, 1), 0, wire.ObserveReq{Asks: wire.AskHealth}).Health.Rounds; rounds != 1 {
		t.Errorf("observed health rounds = %d, want 1", rounds)
	}
}

func TestRepairerRunStops(t *testing.T) {
	c := repairFixture(t, 39)
	r := NewRepairer(c.Nodes[0], 10*time.Millisecond, RepairConfig{Budget: 16}, 9)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.Run(ctx)
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

func TestNewRepairerPanics(t *testing.T) {
	c := repairFixture(t, 40)
	for _, tc := range []struct {
		name  string
		every time.Duration
		cfg   RepairConfig
	}{
		{"zero interval", 0, RepairConfig{Budget: 8}},
		{"zero budget", time.Second, RepairConfig{}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			NewRepairer(c.Nodes[0], tc.every, tc.cfg, 1)
		}()
	}
}
