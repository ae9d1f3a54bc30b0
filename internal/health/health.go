// Package health implements grid-structure observability for P-Grid
// communities: the compact replica digest one peer publishes about itself,
// and the per-level reference-liveness tracker fed by the node's probe
// rounds (its repair loop, or a one-shot Prober).
//
// The paper's availability guarantee is structural — a search succeeds
// with probability (1-(1-p)^refmax)^k (Eq. 3) only while every level of a
// peer's reference table still holds live alternatives and every path
// keeps enough replicas. Metrics and traces observe *queries*; this
// package observes the *structure* queries depend on, so degradation
// (thinning replica groups, dying references, stale replicas) is visible
// before searches start failing. The community crawler (internal/node)
// collects digests across the trie and internal/analysis turns them into
// a structural report with the Eq. 3 availability check.
package health

import (
	"fmt"
	"strings"
	"sync/atomic"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
)

// MaxLevels bounds the per-level probe counters; probes at deeper levels
// are clamped into the last bucket (paths deeper than 32 bits do not occur
// at the paper's scales).
const MaxLevels = 32

// LevelProbe is the probe tally for one reference-table level: how many
// sampled references answered (and validated) and how many did not.
type LevelProbe struct {
	// Level is the 1-based reference-table level probed.
	Level int
	// Live counts probes that found a reachable peer whose path still
	// satisfies the Section 2 reference property.
	Live int64
	// Dead counts probes that found the reference unreachable or invalid.
	Dead int64
}

// Ratio returns the level's liveness ratio Live/(Live+Dead), and false
// when the level has no probes yet.
func (l LevelProbe) Ratio() (float64, bool) {
	total := l.Live + l.Dead
	if total == 0 {
		return 0, false
	}
	return float64(l.Live) / float64(total), true
}

// Digest is the compact self-description one peer publishes about its
// place in the grid: its responsibility path, a fingerprint of its index,
// its reference-table shape, and the liveness its prober has measured.
// Digests ride in the health column of wire.KindObserveResp and are what
// the community crawler aggregates into the structural report.
type Digest struct {
	// Addr is the peer described; Path its current responsibility path.
	Addr addr.Addr
	Path bitpath.Path
	// Entries, MaxVersion and IndexHash are the store fingerprint
	// (store.Summary): replica divergence shows up as differing hashes
	// and version lags within one replica group.
	Entries    int
	MaxVersion uint64
	IndexHash  uint64
	// RefCounts[i] is the number of references held at level i+1 —
	// the structural refmax the Eq. 3 prediction plugs in per level.
	RefCounts []int
	// Buddies is the number of replicas the peer knows for its own path.
	Buddies int
	// Liveness is the prober's per-level tally (nil when probing is off).
	Liveness []LevelProbe
}

// String renders the digest as one diagnostic line.
func (d Digest) String() string {
	var sb strings.Builder
	path := "ε"
	if d.Path.Len() > 0 {
		path = string(d.Path)
	}
	fmt.Fprintf(&sb, "%v path=%s entries=%d maxver=%d hash=%016x buddies=%d refs=%v",
		d.Addr, path, d.Entries, d.MaxVersion, d.IndexHash, d.Buddies, d.RefCounts)
	if r, ok := OverallRatio(d.Liveness); ok {
		fmt.Fprintf(&sb, " liveness=%.2f", r)
	}
	return sb.String()
}

// Of builds the digest of a live peer from a consistent snapshot of its
// routing state, its store fingerprint, and the given probe tally. Both
// the networked node (answering KindObserve) and the simulator (feeding
// the analyzer directly) digest peers through this one function, so their
// reports are directly comparable.
func Of(p *peer.Peer, probes []LevelProbe) Digest {
	s := p.Snapshot()
	sum := p.Store().Summary()
	refCounts := make([]int, len(s.Refs))
	for i, r := range s.Refs {
		refCounts[i] = r.Len()
	}
	return Digest{
		Addr:       s.Addr,
		Path:       s.Path,
		Entries:    sum.Entries,
		MaxVersion: sum.MaxVersion,
		IndexHash:  sum.Hash,
		RefCounts:  refCounts,
		Buddies:    s.Buddies.Len(),
		Liveness:   probes,
	}
}

// OverallRatio pools a probe tally into one liveness ratio, and false when
// no level has probes.
func OverallRatio(probes []LevelProbe) (float64, bool) {
	var live, total int64
	for _, l := range probes {
		live += l.Live
		total += l.Live + l.Dead
	}
	if total == 0 {
		return 0, false
	}
	return float64(live) / float64(total), true
}

// MinLevelRatio returns the worst per-level liveness ratio — the readiness
// signal /healthz gates on, because one starved level breaks routing for
// the whole subtree below it — and false when no level has probes yet.
func MinLevelRatio(probes []LevelProbe) (float64, bool) {
	min, ok := 0.0, false
	for _, l := range probes {
		r, has := l.Ratio()
		if !has {
			continue
		}
		if !ok || r < min {
			min, ok = r, true
		}
	}
	return min, ok
}

// Tracker accumulates reference-probe outcomes per level. All methods are
// nil-safe no-ops (a node without probing threads a nil *Tracker), and all
// mutation is atomic, so the probing goroutine, the RPC handler, and the
// admin endpoint share one tracker without locks.
type Tracker struct {
	rounds atomic.Int64
	levels [MaxLevels + 1]levelCounts
}

type levelCounts struct {
	live atomic.Int64
	dead atomic.Int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Observe records one probe outcome at the given 1-based level.
func (t *Tracker) Observe(level int, live bool) {
	if t == nil {
		return
	}
	if level < 0 {
		level = 0
	}
	if level > MaxLevels {
		level = MaxLevels
	}
	if live {
		t.levels[level].live.Add(1)
	} else {
		t.levels[level].dead.Add(1)
	}
}

// RoundDone records the completion of one probe round.
func (t *Tracker) RoundDone() {
	if t == nil {
		return
	}
	t.rounds.Add(1)
}

// Rounds returns the number of completed probe rounds (0 on nil).
func (t *Tracker) Rounds() int64 {
	if t == nil {
		return 0
	}
	return t.rounds.Load()
}

// Snapshot returns the tally of every level that has at least one probe,
// ascending by level. Nil-safe: a nil tracker returns nil.
func (t *Tracker) Snapshot() []LevelProbe {
	if t == nil {
		return nil
	}
	var out []LevelProbe
	for level := range t.levels {
		live, dead := t.levels[level].live.Load(), t.levels[level].dead.Load()
		if live+dead == 0 {
			continue
		}
		out = append(out, LevelProbe{Level: level, Live: live, Dead: dead})
	}
	return out
}
