// Package repair classifies structural faults in a peer's state and
// names the healing actions that fix them. It is the vocabulary and the
// verdict logic of the self-healing protocol: the node's Repairer (in
// internal/node) detects faults with the functions here, heals them over
// the wire, and reports a Status that telemetry, the admin server, and
// pgridctl all render from.
//
// The design target is self-stabilization in the sense of "A
// Self-Stabilizing Hashed Patricia Trie" (arXiv 1809.04923): starting
// from *arbitrary* state — not just state decayed by churn — repeated
// repair rounds must converge back to a structure satisfying the Sec. 2
// invariant and the Eq. 3 availability bound. The package itself is
// pure: it imports only addr and bitpath, so the wire layer can carry a
// Status without an import cycle.
package repair

import (
	"sort"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

// FaultClass names one kind of structural corruption the detector can
// find. Classes are stable strings: they label pgrid_repair_fault
// telemetry counters and appear verbatim in /debug/repair and the chaos
// artifact, so renaming one is a breaking observability change.
type FaultClass = string

const (
	// FaultWrongSide: a reference at level i does not share prefix(i-1)
	// with the holder or agrees on bit i — the Sec. 2 routing invariant
	// is violated, so queries routed through it can loop or dead-end.
	FaultWrongSide FaultClass = "wrong-side-ref"
	// FaultDeadRef: a referenced peer did not answer the round's probe (a
	// stale directory entry).
	FaultDeadRef FaultClass = "dead-ref"
	// FaultPathDrift: the peer's own path disagrees with the majority of
	// its replica group — a bit-flipped path, the classic arbitrary-
	// corruption fault.
	FaultPathDrift FaultClass = "path-drift"
	// FaultDivergedReplica: a reachable buddy shares the path but its
	// store fingerprint disagrees with the group majority.
	FaultDivergedReplica FaultClass = "diverged-replica"
	// FaultOrphanReplica: a buddy's path does not match the peer's path
	// at all — it replicates some other partition.
	FaultOrphanReplica FaultClass = "orphan-replica"
	// FaultOrphanEntry: a stored data entry whose key lies outside the
	// peer's partition (the peer is not responsible for it).
	FaultOrphanEntry FaultClass = "orphan-entry"
	// FaultStarvedLevel: every reference at some level is dead — the
	// level cannot be refilled from its own live references, so routing
	// for that subtree is severed until a search-refill succeeds.
	FaultStarvedLevel FaultClass = "starved-level"
)

// Action names one healing step the Repairer can take. Like fault
// classes these are stable telemetry labels (pgrid_repair_heal).
type Action = string

const (
	// ActionEvictRef: remove an invariant-violating or dead reference.
	ActionEvictRef Action = "evict-ref"
	// ActionRefillRef: add a validated replacement reference fetched
	// from a live reference's buddy list.
	ActionRefillRef Action = "refill-ref"
	// ActionSearchRefill: recover a starved level by routing a query for
	// the complementary subtree and adopting the responder.
	ActionSearchRefill Action = "search-refill"
	// ActionAdoptPath: rewrite the peer's own path to the replica-group
	// majority after path drift.
	ActionAdoptPath Action = "adopt-path"
	// ActionDropBuddy: remove a reachable buddy that replicates a
	// different partition.
	ActionDropBuddy Action = "drop-buddy"
	// ActionSyncPull: pull missing/newer entries from a replica that
	// agrees with the majority fingerprint.
	ActionSyncPull Action = "sync-pull"
	// ActionSyncPush: push local entries to a diverged replica.
	ActionSyncPush Action = "sync-push"
	// ActionEvictEntry: remove a stored entry outside the partition.
	ActionEvictEntry Action = "evict-entry"
	// ActionRehomeEntry: hand an orphaned entry to a responsible peer
	// before evicting it locally.
	ActionRehomeEntry Action = "rehome-entry"
)

// ValidRef reports whether a reference with path remote is legal at
// 1-based level of a peer whose own path is self: the reference must be
// specialized at least level bits, share the first level-1 bits, and
// differ at bit level (Sec. 2: refs at level i cover the complementary
// subtree). This is the detection predicate for FaultWrongSide.
func ValidRef(self bitpath.Path, level int, remote bitpath.Path) bool {
	if level < 1 || level > self.Len() {
		return false
	}
	if remote.Len() < level {
		return false
	}
	return remote.Prefix(level-1) == self.Prefix(level-1) &&
		remote.Bit(level) != self.Bit(level)
}

// BuddyView is what the detector learned about one member of a replica
// group — fetched from its health digest, or marked unreachable when the
// fetch failed. Unreachable members never vote: an offline buddy may be
// perfectly healthy, so it is kept, not dropped.
type BuddyView struct {
	Addr      addr.Addr
	Path      bitpath.Path
	Entries   int
	IndexHash uint64
	Reachable bool
}

// MajorityPath runs the path-drift vote: over self plus every reachable
// view, it returns the strictly-most-common path and whether adopting it
// would change self. A strict majority (> half the voters) is required —
// with no majority the group is too fractured to trust any path, and the
// peer keeps its own (the fault stays detected-but-unhealed). Ties and
// minorities return ("", false).
func MajorityPath(self bitpath.Path, views []BuddyView) (bitpath.Path, bool) {
	votes := map[bitpath.Path]int{self: 1}
	voters := 1
	for _, v := range views {
		if !v.Reachable {
			continue
		}
		votes[v.Path]++
		voters++
	}
	best, bestN := self, 0
	for p, n := range votes {
		if n > bestN || (n == bestN && p == self) {
			best, bestN = p, n
		}
	}
	if bestN*2 <= voters {
		return "", false
	}
	return best, best != self
}

// PluralityPath is the path-drift verdict the healer acts on: over self
// plus every reachable view, it returns the unique most-common path when
// that path holds at least two votes, and whether such a winner exists.
//
// The weaker-than-majority rule exists for a reason: a corrupted peer can
// hold both a flipped path AND an injected cross-partition buddy link, and
// the orphan's vote then denies its true replicas a strict majority
// forever (2 honest vs 1 corrupt-self vs 1 orphan is no majority of 4) —
// the deadlock would make exactly the compound corruptions unhealable. A
// unique ≥2 plurality still can never be produced by a single liar, while
// breaking that deadlock. With no winner the group is too small or too
// fractured to trust anyone: the caller must neither adopt a path nor
// treat any member as an orphan.
func PluralityPath(self bitpath.Path, views []BuddyView) (bitpath.Path, bool) {
	votes := map[bitpath.Path]int{self: 1}
	for _, v := range views {
		if v.Reachable {
			votes[v.Path]++
		}
	}
	best, bestN, unique := self, 0, false
	for p, n := range votes {
		switch {
		case n > bestN:
			best, bestN, unique = p, n, true
		case n == bestN:
			unique = false
		}
	}
	if !unique || bestN < 2 {
		return "", false
	}
	return best, true
}

// MajorityHash runs the replica-divergence vote: over the peer's own
// store fingerprint plus every reachable same-path view, it returns the
// strictly-most-common index hash and whether one exists. With a
// majority, members hashing differently are FaultDivergedReplica and
// sync toward the majority; without one, the group does pairwise
// anti-entropy instead (no fingerprint is more trustworthy than
// another).
func MajorityHash(selfHash uint64, group []BuddyView) (uint64, bool) {
	votes := map[uint64]int{selfHash: 1}
	voters := 1
	for _, v := range group {
		if !v.Reachable {
			continue
		}
		votes[v.IndexHash]++
		voters++
	}
	best, bestN := selfHash, 0
	for h, n := range votes {
		if n > bestN || (n == bestN && h == selfHash) {
			best, bestN = h, n
		}
	}
	if bestN*2 <= voters {
		return 0, false
	}
	return best, true
}

// Tally is one (label, count) pair in a Status — a fault class or a
// healing action with how many times the repairer saw it.
type Tally struct {
	Name string
	N    int64
}

// Tallies converts a counter map to a deterministic slice, sorted by
// name, dropping zero entries.
func Tallies(m map[string]int64) []Tally {
	out := make([]Tally, 0, len(m))
	for name, n := range m {
		if n != 0 {
			out = append(out, Tally{Name: name, N: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Status is one peer's repair report: cumulative totals since the
// repairer started, plus the last round's fault/heal balance — the
// numbers /debug/repair, pgridctl repair, and the grid report all
// render. A zero Status (Enabled=false) means the peer runs no
// repairer.
type Status struct {
	Enabled  bool
	Rounds   int64 // repair rounds completed
	Messages int64 // wire messages spent healing, all rounds

	// Last round's balance: how many faults were detected, how many
	// healing actions were taken, and how many faults could not be
	// healed (budget exhausted, no majority, no live candidates).
	LastFaults   int64
	LastHeals    int64
	LastUnhealed int64

	// Cumulative per-class counts across all rounds, sorted by name.
	Faults []Tally
	Heals  []Tally
}

// TotalFaults sums the cumulative per-class fault counts.
func (s Status) TotalFaults() int64 {
	var n int64
	for _, t := range s.Faults {
		n += t.N
	}
	return n
}

// TotalHeals sums the cumulative per-action heal counts.
func (s Status) TotalHeals() int64 {
	var n int64
	for _, t := range s.Heals {
		n += t.N
	}
	return n
}

// State classifies a peer (or an aggregated group) for the grid report:
//
//	"healthy"   — last round found nothing it could not heal
//	"repairing" — faults remain but healing is making progress
//	"stuck"     — faults remain and the last round healed nothing
//	""          — no repairer enabled (nothing to say)
//
// The distinction the grid report cares about is "degraded, repairing"
// vs "stuck": the former converges on its own, the latter needs an
// operator.
func State(enabled bool, lastHeals, lastUnhealed int64) string {
	switch {
	case !enabled:
		return ""
	case lastUnhealed == 0:
		return "healthy"
	case lastHeals > 0:
		return "repairing"
	default:
		return "stuck"
	}
}
