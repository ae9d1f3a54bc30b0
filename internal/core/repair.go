package core

import (
	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/trace"
)

// RepairBudget is the most messages one repair round may spend; every
// driver runs rounds at it.
const RepairBudget = 64

// refillFetch bounds how many live references contribute refill candidates
// per level in one round.
const refillFetch = 2

// RepairCalls answers what other peers answer a repairing peer, one call per
// message; a peer that does not answer fails the call (ok false, or an
// unreachable view).
type RepairCalls interface {
	// Health asks a buddy for its health digest (path, entries, store
	// fingerprint); the caller fills in the view's Addr.
	Health(to addr.Addr) repair.BuddyView
	// Info asks a peer for its path and buddies. A level above 0 marks a
	// probe of a reference, or a candidate for one, at that level of a peer
	// whose path is self; a driver may record the probe.
	Info(to addr.Addr, self bitpath.Path, level int) (path bitpath.Path, buddies addr.Set, ok bool)
	// Route searches for key from the contact via (locally when via is the
	// repairing peer) and reports what it found, the found peer's path and
	// the messages spent beyond the contact.
	Route(via addr.Addr, key bitpath.Path) (res QueryResult, path bitpath.Path, ok bool)
	// Scan asks a peer for its entries under prefix.
	Scan(from addr.Addr, prefix bitpath.Path) ([]store.Entry, bool)
	// Apply hands entries to a peer's store.
	Apply(to addr.Addr, entries []store.Entry) bool
}

// RepairRound reports one round: the messages spent, the faults it could
// not heal, the reference probes it made (references and candidates for
// one), the faults detected and the heals applied in order, and one span
// per heal for the peer's flight recorder.
type RepairRound struct {
	Spent, Unhealed, Probed int
	Faults                  []repair.FaultClass
	Heals                   []repair.Action
	Spans                   []trace.Span
}

// Repair runs one detection and healing round of the §16 protocol at self
// (DESIGN.md) within budget messages, keeping at most refmax references a
// level: phase 1 votes on the path within the replica group, phase 2
// probes, evicts and refills references, phase 3 rehomes orphan entries and
// syncs replica stores. It owns every decision and every change to self
// and its store; calls only carries what other peers answer. It draws
// nothing itself (a routed search draws in its driver) and walks sets in
// sorted order, so two drivers answering alike leave self alike. What a
// round cannot heal is counted unhealed and left for the next round.
func Repair(self *peer.Peer, refmax, budget int, calls RepairCalls) RepairRound {
	r := repairRun{self: self, refmax: refmax, budget: budget, calls: calls}
	path, views := r.vote()
	r.references(path)
	r.data(path, views)
	return r.RepairRound
}

type repairRun struct {
	self   *peer.Peer
	refmax int
	budget int
	calls  RepairCalls
	RepairRound
}

// spend reserves k messages against the budget.
func (r *repairRun) spend(k int) bool {
	if r.Spent+k > r.budget {
		return false
	}
	r.Spent += k
	return true
}

func (r *repairRun) fault(class repair.FaultClass) { r.Faults = append(r.Faults, class) }

func (r *repairRun) heal(action repair.Action, level int, ref addr.Addr) {
	r.Heals = append(r.Heals, action)
	r.Spans = append(r.Spans, trace.Span{ID: uint64(len(r.Spans) + 1), Peer: r.self.Addr(),
		Path: r.self.Path(), Level: level, Ref: ref, Matched: true})
}

// vote is phase 1: every buddy's health digest votes on self's path
// (repair.PluralityPath). A confirmed foreign winner is adopted, keeping the
// references under the common prefix, and only a confirmed path condemns
// reachable buddies on other paths as orphans. Unreachable buddies are kept:
// absence is churn, not evidence. It returns the round's path and views.
func (r *repairRun) vote() (bitpath.Path, []repair.BuddyView) {
	snap := r.self.Snapshot()
	path := snap.Path
	views := make([]repair.BuddyView, 0, snap.Buddies.Len())
	for _, b := range snap.Buddies.Sorted() {
		v := repair.BuddyView{}
		if r.spend(1) {
			v = r.calls.Health(b)
		}
		v.Addr = b
		views = append(views, v)
	}
	want, confirmed := repair.PluralityPath(path, views)
	switch {
	case confirmed && want != path:
		r.fault(repair.FaultPathDrift)
		refs := make([]addr.Set, want.Len())
		copy(refs, snap.Refs[:min(bitpath.CommonPrefixLen(path, want), len(snap.Refs))])
		if err := r.self.Restore(peer.Snapshot{Addr: snap.Addr, Path: want, Refs: refs,
			Buddies: snap.Buddies, Online: true}); err != nil {
			confirmed = false
			r.Unhealed++
			break
		}
		r.heal(repair.ActionAdoptPath, 0, addr.Nil)
		path = want
	case !confirmed:
		// No winner, so no side may be adopted. A differing member whose
		// link is one-sided (it does not list self back, as a genuine
		// replica does) is an injected link and goes; reciprocal
		// disagreement stays detected and unhealed.
		drift := false
		for _, v := range views {
			if !v.Reachable || v.Path == path {
				continue
			}
			if r.spend(1) {
				if _, buddies, ok := r.calls.Info(v.Addr, path, 0); ok && !buddies.Contains(snap.Addr) {
					r.dropBuddy(v.Addr)
					continue
				}
			}
			drift = true
		}
		if drift {
			r.fault(repair.FaultPathDrift)
			r.Unhealed++
		}
	}
	if confirmed {
		for _, v := range views {
			if v.Reachable && v.Path != path {
				r.dropBuddy(v.Addr)
			}
		}
	}
	return path, views
}

func (r *repairRun) dropBuddy(b addr.Addr) {
	r.fault(repair.FaultOrphanReplica)
	if r.self.RemoveBuddy(b) {
		r.heal(repair.ActionDropBuddy, 0, b)
	}
}

// references is phase 2, level by level. Wrong-side references go at once;
// dead ones only while the level keeps a live one — a whole level dead at
// once is likelier a partition, so it is kept and counted unhealed unless a
// search for the complementary subtree succeeds. Evicted slots refill from
// live references' buddies (probed like references, never an address
// dropped this round); an empty level refills by search.
func (r *repairRun) references(path bitpath.Path) {
	for level := 1; level <= path.Len(); level++ {
		refs := r.self.RefsAt(level)
		if refs.Len() == 0 {
			r.starved(path, level)
			continue
		}
		var kept, dropped addr.Set
		var dead []addr.Addr
		var liveBuddies []addr.Set
		for _, ref := range refs.Sorted() {
			if !r.spend(1) {
				kept.Add(ref) // budget exhausted: keep unexamined refs
				continue
			}
			r.Probed++
			qpath, buddies, ok := r.calls.Info(ref, path, level)
			switch {
			case !ok:
				dead = append(dead, ref)
			case !repair.ValidRef(path, level, qpath):
				r.fault(repair.FaultWrongSide)
				dropped.Add(ref)
				r.heal(repair.ActionEvictRef, level, ref)
			default:
				kept.Add(ref)
				liveBuddies = append(liveBuddies, buddies)
			}
		}
		allDead := kept.Len() == 0 && len(dead) > 0
		if allDead {
			r.fault(repair.FaultStarvedLevel)
			r.self.SetRefsAt(level, addr.Set{})
			if !r.searchRefill(path, level) {
				r.self.SetRefsAt(level, addr.NewSet(dead...))
				r.Unhealed++
				continue
			}
		}
		for _, d := range dead {
			r.fault(repair.FaultDeadRef)
			dropped.Add(d)
			r.heal(repair.ActionEvictRef, level, d)
		}
		if allDead {
			continue // refilled by search
		}
		// A live reference's valid buddy shares its path, hence its first
		// `level` bits: a reference for self too.
		for fetched, buddies := range liveBuddies {
			if kept.Len() >= r.refmax || fetched >= refillFetch {
				break
			}
			for _, b := range buddies.Slice() {
				if kept.Len() >= r.refmax {
					break
				}
				if b == r.self.Addr() || kept.Contains(b) || dropped.Contains(b) {
					continue
				}
				if !r.spend(1) {
					break
				}
				r.Probed++
				if qpath, _, ok := r.calls.Info(b, path, level); ok && repair.ValidRef(path, level, qpath) {
					kept.Add(b)
					r.heal(repair.ActionRefillRef, level, b)
				}
			}
		}
		r.self.SetRefsAt(level, kept)
		if r.self.RefsAt(level).Len() == 0 {
			r.starved(path, level)
		}
	}
}

func (r *repairRun) starved(path bitpath.Path, level int) {
	r.fault(repair.FaultStarvedLevel)
	if !r.searchRefill(path, level) {
		r.Unhealed++
	}
}

// searchRefill installs at an empty level the responsible peer a search
// for the complementary subtree finds, routed through up to three live
// contacts (buddies and references).
func (r *repairRun) searchRefill(path bitpath.Path, level int) bool {
	target := path.Prefix(level - 1).AppendFlip(path.Bit(level))
	contacts := r.self.Buddies()
	for l := 1; l <= path.Len(); l++ {
		contacts = addr.Union(contacts, r.self.RefsAt(l))
	}
	tried := 0
	for _, c := range contacts.Sorted() {
		if tried >= 3 || !r.spend(1) {
			return false
		}
		res, qpath, ok := r.calls.Route(c, target)
		if !ok {
			continue // a dead contact costs a message, not a try
		}
		tried++
		r.Spent += res.Messages
		if res.Found && res.Peer != r.self.Addr() && repair.ValidRef(path, level, qpath) {
			r.self.AddRefAt(level, res.Peer)
			r.heal(repair.ActionSearchRefill, level, res.Peer)
			return true
		}
	}
	return false
}

// data is phase 3. Entries whose key and self's path are in no prefix
// relation (ReplicaStep's cover rule: a key the path extends is self's too)
// are evicted and routed to a responsible peer, best effort within the
// budget; one whose search ends at self stays. Then the replica group's
// majority store fingerprint steers anti-entropy: a minority peer pulls from
// a majority member (and pushes what the majority lacks), a majority peer
// pushes at divergent members, and with no majority self merges with the
// first divergent member. Syncs are unions that keep the fresher version,
// so they commute and converge.
func (r *repairRun) data(path bitpath.Path, views []repair.BuddyView) {
	st := r.self.Store()
	orphans := st.CountOutside(path)
	for l := 0; l < path.Len(); l++ {
		orphans -= len(st.Lookup(path.Prefix(l))) // keys the path extends
	}
	if orphans > 0 {
		for _, e := range st.Evict(path) {
			if covers, _, _ := ReplicaStep(path, e.Key); covers {
				st.Apply(e)
				continue
			}
			r.fault(repair.FaultOrphanEntry)
			var res QueryResult
			if r.Spent < r.budget {
				res, _, _ = r.calls.Route(r.self.Addr(), e.Key)
				r.Spent += res.Messages
			}
			if res.Found && res.Peer == r.self.Addr() {
				st.Apply(e)
				r.Unhealed++
				continue
			}
			r.heal(repair.ActionEvictEntry, 0, addr.Nil)
			if !res.Found || !r.spend(1) || !r.calls.Apply(res.Peer, []store.Entry{e}) {
				r.Unhealed++
				continue
			}
			r.heal(repair.ActionRehomeEntry, 0, res.Peer)
		}
	}
	var group []repair.BuddyView
	for _, v := range views {
		if v.Reachable && v.Path == path {
			group = append(group, v)
		}
	}
	if len(group) == 0 {
		return
	}
	own := st.Summary().Hash
	want, ok := repair.MajorityHash(own, group)
	switch {
	case ok && want != own:
		r.fault(repair.FaultDivergedReplica)
		healed := r.pull(path, want, group)
		if cur := st.Summary().Hash; cur != want {
			for _, v := range group {
				if v.IndexHash != cur && r.push(path, v.Addr) {
					healed = true
				}
			}
		}
		if !healed {
			r.Unhealed++
		}
	case ok:
		for _, v := range group {
			if v.IndexHash != want {
				r.fault(repair.FaultDivergedReplica)
				if !r.push(path, v.Addr) {
					r.Unhealed++
				}
			}
		}
	default:
		for _, v := range group {
			if v.IndexHash == own {
				continue
			}
			r.fault(repair.FaultDivergedReplica)
			pulled := r.pull(path, v.IndexHash, []repair.BuddyView{v})
			if !r.push(path, v.Addr) && !pulled {
				r.Unhealed++
			}
			break
		}
	}
}

// pull merges into self's store the entries of the first member holding
// the wanted fingerprint that answers.
func (r *repairRun) pull(path bitpath.Path, want uint64, group []repair.BuddyView) bool {
	for _, v := range group {
		if v.IndexHash != want {
			continue
		}
		if !r.spend(1) {
			return false
		}
		entries, ok := r.calls.Scan(v.Addr, path)
		if !ok {
			continue
		}
		for _, e := range entries {
			r.self.Store().Apply(e)
		}
		r.heal(repair.ActionSyncPull, 0, v.Addr)
		return true
	}
	return false
}

// push ships every entry under self's path to one replica in one apply,
// charged per entry.
func (r *repairRun) push(path bitpath.Path, to addr.Addr) bool {
	entries := r.self.Store().PrefixScan(path)
	if len(entries) == 0 || !r.spend(len(entries)) || !r.calls.Apply(to, entries) {
		return false
	}
	r.heal(repair.ActionSyncPush, 0, to)
	return true
}
