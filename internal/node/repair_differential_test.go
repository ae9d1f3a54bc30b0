package node

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/repair"
	"pgrid/internal/store"
)

// soakCorruption builds TestChaosRepairSoak's community for seed — 64 peers
// and 48 entries — takes 12 peers offline and drives the rest into the
// soak's corrupted state (flipped paths, stale references, orphan buddies,
// wiped stores, dropped entries). Transports are the caller's.
func soakCorruption(t *testing.T, seed int64) (*Cluster, CorruptReport) {
	t.Helper()
	const peers, offlineN = 64, 12
	c := NewCluster(peers, smallCfg(), seed)
	rng := rand.New(rand.NewSource(seed))
	buildCluster(t, c, 0.99*4, 80000, rng)
	// Every entry is replicated to each peer responsible for its key, with
	// one fixed holder so replicas of a path carry identical fingerprints.
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
	// Churn keeps at least one live replica per partition: the paper's
	// availability model assumes independent churn, and a partition with
	// zero live replicas is data loss no repair protocol can heal (its
	// levels would stay starved forever, honestly reported as unhealed).
	groupOnline := map[bitpath.Path]int{}
	for _, n := range c.Nodes {
		groupOnline[n.Path()]++
	}
	for offline := 0; offline < offlineN; {
		n := c.Nodes[rng.Intn(peers)]
		if !n.Online() || groupOnline[n.Path()] <= 1 {
			continue
		}
		groupOnline[n.Path()]--
		n.SetOnline(false)
		offline++
	}
	rep := ChaosCorrupt(c, CorruptConfig{
		FlipPaths: 5, StaleRefs: 30, OrphanBuddies: 10,
		WipeStores: 4, DropEntries: 10, Seed: seed + 1,
	})
	return c, rep
}

// mirror copies every node's links, availability and store into a fresh
// directory, the simulator's copy of the same community.
func mirror(c *Cluster) *directory.Directory {
	d := directory.New(len(c.Nodes))
	for i, n := range c.Nodes {
		p := d.Peer(addr.Addr(i))
		if err := p.Restore(n.Peer().Snapshot()); err != nil {
			panic(err)
		}
		for _, e := range n.Store().Entries() {
			p.Store().Apply(e)
		}
	}
	return d
}

// simStatus books simulator rounds the way Repairer.Tick books node rounds.
type simStatus struct {
	st            repair.Status
	faults, heals map[string]int64
}

func (s *simStatus) book(round core.RepairRound) repair.Status {
	if s.faults == nil {
		s.faults, s.heals = map[string]int64{}, map[string]int64{}
	}
	for _, class := range round.Faults {
		s.faults[class]++
	}
	for _, action := range round.Heals {
		s.heals[action]++
	}
	s.st.Enabled = true
	s.st.Rounds++
	s.st.Messages += int64(round.Spent)
	s.st.LastFaults, s.st.LastHeals, s.st.LastUnhealed = int64(len(round.Faults)), int64(len(round.Heals)), int64(round.Unhealed)
	s.st.Faults, s.st.Heals = repair.Tallies(s.faults), repair.Tallies(s.heals)
	return s.st
}

// tracedCalls is the simulator's driver with its routed search traced: it
// notes every search that reaches a wrong-side hop — a peer, reached through
// a reference, that matches no bit of the key — where both drivers' Fig. 2
// walks stop (DESIGN.md §16.2). QueryTraced draws as Query does.
type tracedCalls struct {
	*core.DirectoryCalls
	d         *directory.Directory
	rng       *rand.Rand
	wrongSide *[]string
}

func newTracedCalls(d *directory.Directory, seed int64) tracedCalls {
	rng := rand.New(rand.NewSource(seed))
	return tracedCalls{core.NewDirectoryCalls(d, rng), d, rng, new([]string)}
}

func (g tracedCalls) Route(via addr.Addr, key bitpath.Path) (core.QueryResult, bitpath.Path, bool) {
	p := g.d.Peer(via)
	if p == nil || !p.Online() {
		return core.QueryResult{}, bitpath.Empty, false
	}
	tr := core.QueryTraced(g.d, p, key, g.rng)
	for _, s := range tr.Spans[1:] {
		// A hop at level l has routed the key's first l bits.
		if !s.Matched && s.Path.Bit(s.Level+1) != key.Bit(s.Level+1) {
			*g.wrongSide = append(*g.wrongSide, fmt.Sprintf("a search for %s from %d reached peer %d (path %s) on the wrong side at level %d",
				key, via, s.Peer, s.Path, s.Level+1))
			break
		}
	}
	res := core.QueryResult{Found: tr.Found, Messages: tr.Messages, Backtracks: tr.Backtracks}
	if !tr.Found {
		return res, bitpath.Empty, true
	}
	last := tr.Spans[len(tr.Spans)-1]
	res.Peer = last.Peer
	return res, last.Path, true
}

// TestDifferentialRepairNodeMatchesSimulator is "one kernel, two drivers"
// for the repair round: the soak's corrupted community, as a LocalTransport
// cluster and as its copy in a directory, runs one repair round per online
// peer in address order on both drivers — the node's over the wire, the
// simulator's from the directory — and after every round both must agree on
// that peer's repair Status, on every peer's path, references in order and
// buddies, and on every store's fingerprint. The corruption includes the
// mixes that route (levels starved by a path flip or by stale references,
// misdirected entries): every node draws from one shared stream and the
// simulator from a copy of it, and the two Fig. 2 walks pop the same
// references in the same order, so the routed searches of search refill
// and rehoming line up draw for draw.
func TestDifferentialRepairNodeMatchesSimulator(t *testing.T) {
	const seed = 84
	rounds, rep, _ := repairDifferential(t, seed)
	t.Logf("repair differential: %d sweeps from %+v, heals %v", repairSweeps, rep, repair.Tallies(rounds))
	// The corruption must have exercised every phase, routed ones included.
	for _, action := range []string{repair.ActionAdoptPath, repair.ActionDropBuddy, repair.ActionEvictRef,
		repair.ActionRefillRef, repair.ActionSearchRefill, repair.ActionRehomeEntry, repair.ActionSyncPull, repair.ActionSyncPush} {
		if rounds[action] == 0 {
			t.Errorf("no %s heal in %d sweeps: the differential did not reach it", action, repairSweeps)
		}
	}
}

// TestDifferentialRepairThroughWrongSideHops: the repair differential on the
// soak's corruption for seeds 1–20, where routed searches reach wrong-side
// hops — 39 of them, in 13 seeds — and both drivers stop
// there: node and simulator still agree after every round.
func TestDifferentialRepairThroughWrongSideHops(t *testing.T) {
	hops := 0
	for seed := int64(1); seed <= 20; seed++ {
		_, _, n := repairDifferential(t, seed)
		hops += n
	}
	t.Logf("repair differential, seeds 1–20: %d routed searches reached a wrong-side hop", hops)
	if hops == 0 {
		t.Fatal("no routed search reached a wrong-side hop: the stop went untested")
	}
}

const repairSweeps = 3

// repairDifferential runs the differential of
// TestDifferentialRepairNodeMatchesSimulator on the soak's corruption for seed
// and returns the heals it made, the corruption report and how many routed
// searches reached a wrong-side hop.
func repairDifferential(t *testing.T, seed int64) (map[string]int64, CorruptReport, int) {
	t.Helper()
	c, rep := soakCorruption(t, seed)
	// A misdirected insert on three peers: entries outside their path, which
	// the round evicts and routes to a responsible peer.
	misdirected := 0
	for _, n := range c.Nodes {
		if path := n.Path(); n.Online() && path.Len() > 0 && misdirected < 3 {
			key := bitpath.Empty.AppendFlip(path.Bit(1)) + path.Suffix(1)
			n.Store().Apply(store.Entry{Key: key, Name: fmt.Sprintf("misdirected%d", misdirected), Holder: n.Addr(), Version: 1})
			misdirected++
		}
	}
	d := mirror(c)
	nodeRng := rand.New(rand.NewSource(seed))
	calls := newTracedCalls(d, seed)
	repairers := make([]*Repairer, len(c.Nodes))
	sims := make([]simStatus, len(c.Nodes))
	for i, n := range c.Nodes {
		n.rng = nodeRng
		repairers[i] = NewRepairer(n, time.Second, int64(i))
	}

	rounds := map[string]int64{}
	for sweep := 1; sweep <= repairSweeps; sweep++ {
		for i, n := range c.Nodes {
			if !n.Online() {
				continue
			}
			repairers[i].Tick()
			round := core.Repair(d.Peer(n.Addr()), smallCfg().RefMax, core.RepairBudget, calls)
			for _, a := range round.Heals {
				rounds[a]++
			}
			where := fmt.Sprintf("seed %d, sweep %d, after peer %d's round", seed, sweep, i)
			if sim, node := sims[i].book(round), repairers[i].Status(); !reflect.DeepEqual(sim, node) {
				t.Fatalf("%s: status differs:\n simulator: %+v\n node:      %+v", where, sim, node)
			}
			for j, m := range c.Nodes {
				sim, node := d.Peer(addr.Addr(j)).Snapshot(), m.Peer().Snapshot()
				if !sameLinks(sim, node) {
					t.Fatalf("%s: peer %d differs:\n simulator: %s\n node:      %s", where, j, showLinks(sim), showLinks(node))
				}
				if sim, node := d.Peer(addr.Addr(j)).Store().Summary(), m.Store().Summary(); sim != node {
					t.Fatalf("%s: peer %d's store differs: simulator %+v, node %+v", where, j, sim, node)
				}
			}
		}
	}
	return rounds, rep, len(*calls.wrongSide)
}

// legalState classifies a directory's online community the way
// TestChaosRepairSoak judges convergence: "" when every reference satisfies
// the Sec. 2 property, no entry lies outside its holder's path, no live
// buddy replicates another partition and each replica group agrees on one
// fingerprint; otherwise the first class of violation found.
func legalState(d *directory.Directory) string {
	orphanBuddy, fingerprints, other := false, false, false
	hashes := map[bitpath.Path]map[uint64]bool{}
	for _, p := range d.All() {
		if !p.Online() {
			continue
		}
		s := p.Snapshot()
		for level, refs := range s.Refs {
			for _, r := range refs.Slice() {
				if q := d.Peer(r); q == nil || !repair.ValidRef(s.Path, level+1, q.Path()) {
					other = true
				}
			}
		}
		if p.Store().CountOutside(s.Path) != 0 {
			other = true
		}
		for _, b := range s.Buddies.Slice() {
			if q := d.Peer(b); q != nil && q.Online() && q.Path() != s.Path {
				orphanBuddy = true
			}
		}
		if hashes[s.Path] == nil {
			hashes[s.Path] = map[uint64]bool{}
		}
		hashes[s.Path][p.Store().Summary().Hash] = true
	}
	for _, hs := range hashes {
		if len(hs) > 1 {
			fingerprints = true
		}
	}
	switch {
	case orphanBuddy:
		return "orphan buddy"
	case fingerprints:
		return "two fingerprints"
	case other:
		return "still repairing"
	}
	return ""
}

// stateDigest hashes every peer's availability, path, references in order,
// buddies and store fingerprint.
func stateDigest(d *directory.Directory) uint64 {
	h := fnv.New64a()
	for _, p := range d.All() {
		s := p.Snapshot()
		fmt.Fprintf(h, "%d %t %s %v", s.Addr, s.Online, showLinks(s), p.Store().Summary())
	}
	return h.Sum64()
}

// TestRepairSeedSweep runs the soak's corruption mix for seeds 1–100 on the
// simulator driver, up to 8 rounds of every online peer at the soak's
// budget, and logs how the seeds end. Whether repair converges from every
// corrupted state is open (ROADMAP item 4), so no rate is asserted; what is
// asserted is that the driver replays: the same corrupted state repaired
// twice with the same draws ends in the same state. It also logs how many
// seeds ran a routed search that reached a wrong-side hop, where both
// drivers' walks stop.
func TestRepairSeedSweep(t *testing.T) {
	const seeds, maxRounds, budget = 100, 8, 128
	start := time.Now()
	refmax := smallCfg().RefMax
	wrongSide := 0
	run := func(d *directory.Directory, seed int64) (string, uint64, bool) {
		calls := newTracedCalls(d, seed)
		for round := 1; round <= maxRounds; round++ {
			for _, p := range d.All() {
				if p.Online() {
					core.Repair(p, refmax, budget, calls)
				}
			}
			if legalState(d) == "" {
				break
			}
		}
		return legalState(d), stateDigest(d), len(*calls.wrongSide) > 0
	}
	classes := map[string]int{}
	for seed := int64(1); seed <= seeds; seed++ {
		c, _ := soakCorruption(t, seed)
		class, digest, stopped := run(mirror(c), seed)
		if stopped {
			wrongSide++
		}
		if again, replayed, _ := run(mirror(c), seed); again != class || replayed != digest {
			t.Errorf("seed %d: replay ended %q/%x, first run %q/%x", seed, again, replayed, class, digest)
		}
		if class == "" {
			class = "converged"
		}
		classes[class]++
	}
	for _, class := range []string{"converged", "orphan buddy", "two fingerprints", "still repairing"} {
		t.Logf("repair sweep: %-16s %3d of %d seeds", class, classes[class], seeds)
	}
	t.Logf("repair sweep: %d of %d seeds reached a wrong-side hop in a routed search, where both drivers' walks stop",
		wrongSide, seeds)
	t.Logf("repair sweep: %v", time.Since(start).Round(time.Millisecond))
}
