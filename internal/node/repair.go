package node

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// RepairConfig tunes one repairer.
type RepairConfig struct {
	// Budget is the maximum number of wire messages one repair round may
	// spend. Required.
	Budget int
}

// refillFetch bounds how many live references contribute refill candidates
// per level in one round.
const refillFetch = 2

// Repairer is the self-healing loop of a networked node, and the only
// background loop that probes its references: each round it detects
// structural faults — references on the wrong side of the Section 2 prefix
// invariant, dead directory entries, replicas whose path or store
// fingerprint drifted from their group, entries stored outside the node's
// responsibility — and heals what it can within the message budget. The
// design follows the self-stabilization view of P-Grid maintenance
// (arXiv 1809.04923): every action moves the node toward a legal state
// regardless of how the current state was reached, so the community
// converges from arbitrary corruption.
//
// What one round cannot heal (a replica group with no path majority, a
// level whose references all died at once, syncs the budget cut off) is
// counted as unhealed and left for the next round; repair.State turns that
// tally into the "repairing"/"stuck" verdict operators see.
type Repairer struct {
	node  *Node
	every time.Duration
	cfg   RepairConfig

	mu       sync.Mutex
	rng      *rand.Rand
	rounds   int64
	messages int64

	lastFaults, lastHeals, lastUnhealed int64

	faults map[string]int64
	heals  map[string]int64
}

// NewRepairer attaches a repair loop to the node and registers it so the
// node answers the repair column for it. Interval and budget must be positive.
// Health probing is enabled as a side effect (repair shares the liveness
// tracker). Call before the node starts serving; the repairer field is
// not synchronized.
func NewRepairer(n *Node, every time.Duration, cfg RepairConfig, seed int64) *Repairer {
	if every <= 0 {
		panic(fmt.Sprintf("node: repair interval %v must be positive", every))
	}
	if cfg.Budget <= 0 {
		panic(fmt.Sprintf("node: repair budget %d must be positive", cfg.Budget))
	}
	n.EnableHealth()
	r := &Repairer{
		node:   n,
		every:  every,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(seed)),
		faults: make(map[string]int64),
		heals:  make(map[string]int64),
	}
	n.repairer = r
	return r
}

// Run ticks the repair loop until the context is cancelled. Rounds are
// jittered uniformly over [0.75, 1.25] of the interval so a fleet started
// together does not repair in lockstep.
func (r *Repairer) Run(ctx context.Context) {
	for {
		r.mu.Lock()
		d := r.every/4*3 + time.Duration(r.rng.Int63n(int64(r.every)/2+1))
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
			r.Tick()
		}
	}
}

// Status returns the repairer's cumulative tallies. Nil-safe: a nil
// repairer reports Enabled=false, which is how peers without repair
// answer the repair column.
func (r *Repairer) Status() repair.Status {
	if r == nil {
		return repair.Status{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return repair.Status{
		Enabled:      true,
		Rounds:       r.rounds,
		Messages:     r.messages,
		LastFaults:   r.lastFaults,
		LastHeals:    r.lastHeals,
		LastUnhealed: r.lastUnhealed,
		Faults:       repair.Tallies(r.faults),
		Heals:        repair.Tallies(r.heals),
	}
}

// Tick runs one detection+healing round. Rounds are serialized; a
// triggered round (wire.AskRepairNow) and the background loop never
// interleave. An offline node skips the round entirely.
func (r *Repairer) Tick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.node
	if !n.Online() {
		return
	}

	var (
		spent    int
		faults   int64
		heals    int64
		unhealed int64
		spans    []trace.Span
	)
	// spend reserves k messages against the round budget; charge books
	// downstream costs already incurred (routed queries report their
	// subtree's message count after the fact).
	spend := func(k int) bool {
		if spent+k > r.cfg.Budget {
			return false
		}
		spent += k
		return true
	}
	charge := func(k int) { spent += k }
	fault := func(class repair.FaultClass) {
		faults++
		r.faults[class]++
		n.tel.RepairFault(class)
	}
	heal := func(action repair.Action, level int, ref addr.Addr) {
		heals++
		r.heals[action]++
		n.tel.RepairHeal(action)
		spans = append(spans, trace.Span{
			ID: uint64(len(spans) + 1), Peer: n.Addr(), Path: n.Path(),
			Level: level, Ref: ref, Matched: true,
		})
	}

	// Phase 1 — replica group. Observe every buddy's health column (path +
	// store fingerprint) and let the group vote on what this node's path
	// should be: a corrupted path loses a strict-majority vote against
	// its replicas and is adopted back (Restore keeps the references that
	// are still valid under the common prefix). Reachable buddies that
	// replicate a different partition are orphan replicas and are dropped;
	// unreachable ones are kept — absence is churn, not evidence.
	snap := n.self.Snapshot()
	path := snap.Path
	views := make([]repair.BuddyView, 0, snap.Buddies.Len())
	for _, b := range snap.Buddies.Sorted() {
		v := repair.BuddyView{Addr: b}
		if spend(1) {
			resp, err := n.tr.Call(b, &wire.Message{Kind: wire.KindObserve, From: n.Addr(),
				Observe: &wire.ObserveReq{Asks: wire.AskHealth}})
			if err == nil && resp.ObserveResp != nil && resp.ObserveResp.Health != nil {
				d := resp.ObserveResp.Health.Digest
				v = repair.BuddyView{Addr: b, Path: d.Path, Entries: d.Entries,
					IndexHash: d.IndexHash, Reachable: true}
			}
		}
		views = append(views, v)
	}
	want, confirmed := repair.PluralityPath(path, views)
	switch {
	case confirmed && want != path:
		fault(repair.FaultPathDrift)
		refs := make([]addr.Set, want.Len())
		keep := bitpath.CommonPrefixLen(path, want)
		for i := 0; i < keep && i < len(snap.Refs); i++ {
			refs[i] = snap.Refs[i]
		}
		if err := n.self.Restore(peer.Snapshot{
			Addr: snap.Addr, Path: want, Refs: refs,
			Buddies: snap.Buddies, Online: true,
		}); err == nil {
			heal(repair.ActionAdoptPath, 0, addr.Nil)
			path = want
		} else {
			confirmed = false
			unhealed++
		}
	case !confirmed:
		// No trustworthy winner, so no side may be adopted. A reachable
		// member on a different path can still be dropped without a vote
		// when its link is one-sided: a genuine replica lists this node in
		// its own buddy set, an injected cross-partition link does not —
		// and if this node is the corrupt one, its honest replicas DO
		// reciprocate, so they survive the test. Reciprocal disagreement
		// is real ambiguity and stays detected-but-unhealed for a later
		// round with more of the group reachable (or the operator).
		drift := false
		for _, v := range views {
			if !v.Reachable || v.Path == path {
				continue
			}
			if spend(1) {
				resp, err := n.tr.Call(v.Addr, &wire.Message{Kind: wire.KindInfo, From: n.Addr()})
				if err == nil && resp.InfoResp != nil &&
					!resp.InfoResp.Buddies.ToSet().Contains(n.Addr()) {
					fault(repair.FaultOrphanReplica)
					if n.self.RemoveBuddy(v.Addr) {
						heal(repair.ActionDropBuddy, 0, v.Addr)
					}
					continue
				}
			}
			drift = true
		}
		if drift {
			fault(repair.FaultPathDrift)
			unhealed++
		}
	}
	if confirmed {
		// Only a vote-confirmed path may condemn buddies: dropping every
		// buddy that disagrees with an UNconfirmed (possibly corrupt) own
		// path would evict the honest replicas and keep the liars.
		for _, v := range views {
			if !v.Reachable || v.Path == path {
				continue
			}
			fault(repair.FaultOrphanReplica)
			if n.self.RemoveBuddy(v.Addr) {
				heal(repair.ActionDropBuddy, 0, v.Addr)
			}
		}
	}

	// Phase 2 — references, level by level. Every reference is probed:
	// reachable-but-wrong-side references always go (they violate the
	// invariant right now); dead ones go only if the level retains at
	// least one live reference. A whole level answering dead at once is
	// likelier a partition than simultaneous churn, so it is kept as-is
	// and counted unhealed — unless a search for the complementary
	// subtree routed through the rest of the structure succeeds, which
	// refutes the partition hypothesis and licenses the eviction.
	// Evicted slots refill from live references' buddies, never
	// readmitting an address dropped this round; a level left empty
	// refills by routing a search for the complementary subtree.
	for level := 1; level <= path.Len(); level++ {
		refs := n.self.RefsAt(level)
		if refs.Len() == 0 {
			fault(repair.FaultStarvedLevel)
			if !r.searchRefill(path, level, spend, charge, heal) {
				unhealed++
			}
			continue
		}
		kept := addr.Set{}
		dropped := addr.Set{}
		var dead []addr.Addr
		var liveInfos []*wire.InfoResp
		for _, ref := range refs.Sorted() {
			if !spend(1) {
				kept.Add(ref) // budget exhausted: keep unexamined refs
				continue
			}
			info, valid := n.probeRef(path, level, ref)
			switch {
			case info == nil:
				dead = append(dead, ref)
			case !valid:
				fault(repair.FaultWrongSide)
				dropped.Add(ref)
				heal(repair.ActionEvictRef, level, ref)
			default:
				kept.Add(ref)
				liveInfos = append(liveInfos, info)
			}
		}
		if len(liveInfos) == 0 && kept.Len() == 0 && len(dead) > 0 {
			// Whole level dead at once: likelier a partition than
			// simultaneous churn — unless a search routed through the rest
			// of the structure succeeds, which refutes the partition
			// hypothesis and proves the references really are gone. Search
			// first; evict the dead only on success, else keep the level
			// as-is and count it unhealed.
			fault(repair.FaultStarvedLevel)
			n.self.SetRefsAt(level, addr.Set{})
			if r.searchRefill(path, level, spend, charge, heal) {
				for _, d := range dead {
					fault(repair.FaultDeadRef)
					heal(repair.ActionEvictRef, level, d)
				}
			} else {
				restored := addr.Set{}
				for _, d := range dead {
					restored.Add(d)
				}
				n.self.SetRefsAt(level, restored)
				unhealed++
			}
			continue
		}
		for _, d := range dead {
			fault(repair.FaultDeadRef)
			dropped.Add(d)
			heal(repair.ActionEvictRef, level, d)
		}
		// Refill toward refmax from live references' buddies: a valid
		// buddy shares the full path of the reference, hence its first
		// `level` bits, and is probed like any reference.
		fetched := 0
		for _, info := range liveInfos {
			if kept.Len() >= n.cfg.RefMax || fetched >= refillFetch {
				break
			}
			fetched++
			for _, b := range info.Buddies.ToSet().Slice() {
				if kept.Len() >= n.cfg.RefMax {
					break
				}
				if b == n.Addr() || kept.Contains(b) || dropped.Contains(b) {
					continue
				}
				if !spend(1) {
					break
				}
				if _, valid := n.probeRef(path, level, b); valid {
					kept.Add(b)
					heal(repair.ActionRefillRef, level, b)
				}
			}
		}
		n.self.SetRefsAt(level, kept)
		if n.self.RefsAt(level).Len() == 0 {
			fault(repair.FaultStarvedLevel)
			if !r.searchRefill(path, level, spend, charge, heal) {
				unhealed++
			}
		}
	}

	// Phase 3 — data. Entries stored outside the node's path are orphans
	// (a leftover of a healed path flip, or a misdirected insert): evict
	// them and route each back to its responsible peer, best effort within
	// the budget. Then compare store fingerprints within the replica
	// group: the majority hash steers anti-entropy — a minority node pulls
	// the partition's entries from a majority member, a majority node
	// pushes its entries at divergent members; with no majority the node
	// merges pairwise with the first divergent member. All syncs are
	// unions (Apply keeps the fresher version), so they commute and
	// converge.
	if n.Store().CountOutside(path) > 0 {
		for _, e := range n.Store().Evict(path) {
			fault(repair.FaultOrphanEntry)
			heal(repair.ActionEvictEntry, 0, addr.Nil)
			if spent >= r.cfg.Budget {
				unhealed++
				continue
			}
			var q wire.QueryResp
			n.handleQuery(&wire.QueryReq{Key: e.Key}, &q, new(wire.QueryCall))
			charge(q.Messages)
			if !q.Found || q.Peer == n.Addr() || !spend(1) {
				unhealed++
				continue
			}
			resp, err := n.tr.Call(q.Peer, &wire.Message{Kind: wire.KindApply, From: n.Addr(),
				Apply: &wire.ApplyReq{Entries: []store.Entry{e}}})
			if err != nil || resp.ApplyResp == nil {
				unhealed++
				continue
			}
			heal(repair.ActionRehomeEntry, 0, q.Peer)
		}
	}
	var group []repair.BuddyView
	for _, v := range views {
		if v.Reachable && v.Path == path {
			group = append(group, v)
		}
	}
	if len(group) > 0 {
		sum := n.Store().Summary()
		wantHash, ok := repair.MajorityHash(sum.Hash, group)
		switch {
		case ok && wantHash != sum.Hash:
			fault(repair.FaultDivergedReplica)
			healedSync := r.pull(path, wantHash, group, spend, heal)
			// A pull only adds entries: if this node held entries the
			// majority lacks, its post-pull fingerprint still differs, and
			// only pushing them reconciles the group (the sync is a union,
			// so pushes commute with concurrent rounds elsewhere).
			if cur := n.Store().Summary().Hash; cur != wantHash {
				for _, v := range group {
					if v.IndexHash == cur {
						continue
					}
					if r.push(path, v.Addr, spend, heal) {
						healedSync = true
					}
				}
			}
			if !healedSync {
				unhealed++
			}
		case ok:
			for _, v := range group {
				if v.IndexHash == wantHash {
					continue
				}
				fault(repair.FaultDivergedReplica)
				if !r.push(path, v.Addr, spend, heal) {
					unhealed++
				}
			}
		default:
			// No fingerprint majority (e.g. an even split): merge pairwise
			// with the first divergent member; repeated rounds converge the
			// group on the union.
			for _, v := range group {
				if v.IndexHash == sum.Hash {
					continue
				}
				fault(repair.FaultDivergedReplica)
				healedPair := r.pull(path, v.IndexHash, []repair.BuddyView{v}, spend, heal)
				if r.push(path, v.Addr, spend, heal) {
					healedPair = true
				}
				if !healedPair {
					unhealed++
				}
				break
			}
		}
	}

	r.rounds++
	r.messages += int64(spent)
	r.lastFaults, r.lastHeals, r.lastUnhealed = faults, heals, unhealed
	n.tel.RepairRound(spent, int(unhealed))
	id := r.rng.Uint64()
	for id == 0 {
		id = r.rng.Uint64()
	}
	n.rec.Record(trace.Trace{TraceID: id, Key: path, Found: unhealed == 0,
		Messages: spent, Backtracks: int(unhealed), Spans: spans})
	n.probeRoundDone()
}

// searchRefill repopulates an empty level by routing a query for the
// complementary subtree (the node's prefix with bit `level` flipped)
// through any live contact, and installing the responsible peer it finds.
func (r *Repairer) searchRefill(path bitpath.Path, level int,
	spend func(int) bool, charge func(int), heal func(repair.Action, int, addr.Addr)) bool {
	n := r.node
	target := path.Prefix(level - 1).AppendFlip(path.Bit(level))
	contacts := n.self.Buddies()
	for l := 1; l <= path.Len(); l++ {
		contacts = addr.Union(contacts, n.self.RefsAt(l))
	}
	tried := 0
	for _, c := range contacts.Sorted() {
		if tried >= 3 || !spend(1) {
			return false
		}
		resp, err := n.tr.Call(c, &wire.Message{Kind: wire.KindQuery, From: n.Addr(),
			Query: &wire.QueryReq{Key: target}})
		if err != nil || resp.QueryResp == nil {
			// Dead contacts cost a message but not a try: the budget, not
			// the try cap, bounds how long a mostly-dead contact list can
			// stall the search.
			continue
		}
		tried++
		q := resp.QueryResp
		charge(q.Messages)
		if !q.Found || q.Peer == n.Addr() || !repair.ValidRef(path, level, q.Path) {
			continue
		}
		n.self.AddRefAt(level, q.Peer)
		heal(repair.ActionSearchRefill, level, q.Peer)
		return true
	}
	return false
}

// pull replaces the node's view of its partition with the union of its
// own entries and those of a replica holding the majority fingerprint.
func (r *Repairer) pull(path bitpath.Path, wantHash uint64, group []repair.BuddyView,
	spend func(int) bool, heal func(repair.Action, int, addr.Addr)) bool {
	n := r.node
	for _, v := range group {
		if v.IndexHash != wantHash {
			continue
		}
		if !spend(1) {
			return false
		}
		resp, err := n.tr.Call(v.Addr, &wire.Message{Kind: wire.KindScan, From: n.Addr(),
			Scan: &wire.ScanReq{Prefix: path}})
		if err != nil || resp.ScanResp == nil {
			continue
		}
		for _, e := range resp.ScanResp.Entries {
			n.Store().Apply(e)
		}
		heal(repair.ActionSyncPull, 0, v.Addr)
		return true
	}
	return false
}

// push ships every entry under the node's path to one divergent replica in
// one apply. The budget is charged per entry.
func (r *Repairer) push(path bitpath.Path, to addr.Addr,
	spend func(int) bool, heal func(repair.Action, int, addr.Addr)) bool {
	n := r.node
	entries := n.Store().PrefixScan(path)
	if len(entries) == 0 || !spend(len(entries)) {
		return false
	}
	resp, err := n.tr.Call(to, &wire.Message{Kind: wire.KindApply, From: n.Addr(),
		Apply: &wire.ApplyReq{Entries: entries}})
	if err != nil || resp.ApplyResp == nil {
		return false
	}
	heal(repair.ActionSyncPush, 0, to)
	return true
}
