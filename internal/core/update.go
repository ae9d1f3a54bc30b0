package core

import (
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/store"
)

// Strategy selects how an update locates the replicas of a key
// (Section 5.2 compares the three).
type Strategy int

const (
	// RepeatedDFS runs independent depth-first searches, each finding at
	// most one replica.
	RepeatedDFS Strategy = iota
	// RepeatedDFSBuddies runs depth-first searches and additionally
	// contacts the online buddies of every replica found.
	RepeatedDFSBuddies
	// BreadthFirst runs breadth-first searches following recbreadth
	// references per level (the strategy the paper finds far superior).
	BreadthFirst
)

// String names the strategy for reports.
func (s Strategy) String() string {
	switch s {
	case RepeatedDFS:
		return "repeated-dfs"
	case RepeatedDFSBuddies:
		return "repeated-dfs+buddies"
	case BreadthFirst:
		return "breadth-first"
	default:
		return "unknown-strategy"
	}
}

// MarshalText names the strategy in JSON reports too.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// FindRound runs one round of the given replica-location strategy for key,
// starting at a random online peer, and merges newly found replicas into
// acc (a set of replica addresses). It returns the messages spent this
// round. recbreadth is only used by BreadthFirst.
func FindRound(d *directory.Directory, s Strategy, key bitpath.Path, recbreadth int, acc map[addr.Addr]bool, rng *rand.Rand) int {
	start := d.RandomOnlinePeer(rng)
	if start == nil {
		return 0
	}
	switch s {
	case RepeatedDFS, RepeatedDFSBuddies:
		res := Query(d, start, key, rng)
		msgs := res.Messages
		if !res.Found {
			return msgs
		}
		acc[res.Peer] = true
		if s == RepeatedDFSBuddies {
			for _, b := range d.Peer(res.Peer).Buddies().Slice() {
				if acc[b] || !d.Online(b) {
					continue
				}
				msgs++ // contacting the buddy is one message
				acc[b] = true
			}
		}
		return msgs
	case BreadthFirst:
		res := ReplicaSearch(d, start, key, recbreadth, rng)
		for _, a := range res.Found {
			acc[a] = true
		}
		return res.Messages
	default:
		return 0
	}
}

// UpdateResult reports an update propagation.
type UpdateResult struct {
	// Replicas is the number of distinct covering peers that received the
	// new entry.
	Replicas int
	// Messages is the total insertion cost.
	Messages int
}

// Update propagates entry to the replicas of entry.Key using `repetition`
// breadth-first searches with the given recbreadth, the scheme evaluated in
// the final table of Section 5.2. Every located covering peer applies the
// entry (version-monotone).
func Update(d *directory.Directory, entry store.Entry, recbreadth, repetition int, rng *rand.Rand) UpdateResult {
	found := make(map[addr.Addr]bool)
	msgs := 0
	for i := 0; i < repetition; i++ {
		msgs += FindRound(d, BreadthFirst, entry.Key, recbreadth, found, rng)
	}
	for a := range found {
		d.Peer(a).Store().Apply(entry)
	}
	return UpdateResult{Replicas: len(found), Messages: msgs}
}

// Insert publishes a new entry by spreading it with two breadth-first
// passes from independent random entry points, so that coverage of the
// replica group never hinges on a single unlucky entry (a pass started
// inside an exact-depth replica group reaches only the start peer, because
// no reference can point at a same-path replica). Replicas == 0 means no
// responsible peer was reachable (retry from another entry point).
func Insert(d *directory.Directory, entry store.Entry, recbreadth int, rng *rand.Rand) UpdateResult {
	return Update(d, entry, recbreadth, 2, rng)
}

// ReadResult reports a read.
type ReadResult struct {
	// Entry is the value read (zero when !Found).
	Entry store.Entry
	// Found reports whether a responsible peer was reached AND it had an
	// entry for the (key, name).
	Found bool
	// Replica is the responsible peer that answered.
	Replica addr.Addr
	// Messages is the total message cost.
	Messages int
	// Queries is the number of depth-first searches performed (1 for
	// ReadOnce, ≥1 for MajorityRead).
	Queries int
}

// ReadOnce performs one depth-first search from start and returns the
// entry stored for (key, name) at the responsible peer found. This is the
// paper's "non-repetitive search": it trusts a single replica, so it
// returns stale data when the replica missed an update.
func ReadOnce(d *directory.Directory, start *peer.Peer, key bitpath.Path, name string, rng *rand.Rand) ReadResult {
	res := Query(d, start, key, rng)
	out := ReadResult{Messages: res.Messages, Queries: 1}
	if !res.Found {
		return out
	}
	out.Replica = res.Peer
	e, ok := d.Peer(res.Peer).Store().Get(key, name)
	if !ok {
		return out
	}
	out.Entry = e
	out.Found = true
	return out
}

// MajorityOptions tunes MajorityRead.
type MajorityOptions struct {
	// Margin is the lead (in distinct replicas) the winning version must
	// have over the runner-up before the read commits. Higher margins
	// trade messages for confidence. Default 3.
	Margin int
	// MaxQueries bounds the number of depth-first searches. Default 64.
	MaxQueries int
}

func (o MajorityOptions) withDefaults() MajorityOptions {
	if o.Margin <= 0 {
		o.Margin = 3
	}
	if o.MaxQueries <= 0 {
		o.MaxQueries = 64
	}
	return o
}

// Tally is the vote count of the repetitive-search read (Section 5.2): each
// distinct replica votes once for the version it reports. The zero value is
// an empty tally. core.MajorityRead and node.Client.MajorityRead share it;
// they differ only in how a replica is reached.
type Tally struct {
	seen     addr.Set
	versions []versionVotes // few (one per version in circulation): scanned, never sorted
}

type versionVotes struct {
	entry store.Entry // the latest entry reported for the version
	votes int
}

// Vote records that replica reported e. A replica that has voted before
// (or addr.Nil) is not counted again; Vote then reports false.
func (t *Tally) Vote(replica addr.Addr, e store.Entry) bool {
	if !t.seen.Add(replica) {
		return false
	}
	for i := range t.versions {
		if v := &t.versions[i]; v.entry.Version == e.Version {
			v.entry = e
			v.votes++
			return true
		}
	}
	t.versions = append(t.versions, versionVotes{entry: e, votes: 1})
	return true
}

// Leader returns the best-supported entry (most votes, the higher version
// on a tie), its vote count and its lead over the runner-up. votes is 0 on
// an empty tally. A read commits once lead reaches its margin; with the
// query budget spent the leader is the best-effort answer.
func (t *Tally) Leader() (e store.Entry, votes, lead int) {
	var first *versionVotes
	second := 0
	for i := range t.versions {
		v := &t.versions[i]
		switch {
		case first == nil || v.votes > first.votes ||
			(v.votes == first.votes && v.entry.Version > first.entry.Version):
			if first != nil {
				second = first.votes
			}
			first = v
		case v.votes > second:
			second = v.votes
		}
	}
	if first == nil {
		return store.Entry{}, 0, 0
	}
	return first.entry, first.votes, first.votes - second
}

// MajorityRead implements the paper's "repetitive search" read protocol:
// repeat independent depth-first searches from random online entry points,
// collect the versions reported by *distinct* replicas, and decide by
// majority once one version leads by opts.Margin distinct replicas. If more
// than half the replicas are up to date this converges to the correct value
// with arbitrarily high probability as the margin grows (Section 5.2).
func MajorityRead(d *directory.Directory, key bitpath.Path, name string, opts MajorityOptions, rng *rand.Rand) ReadResult {
	opts = opts.withDefaults()
	var tally Tally
	var out ReadResult
	for out.Queries < opts.MaxQueries {
		start := d.RandomOnlinePeer(rng)
		if start == nil {
			break
		}
		r := ReadOnce(d, start, key, name, rng)
		out.Queries++
		out.Messages += r.Messages
		if r.Found && tally.Vote(r.Replica, r.Entry) {
			if e, _, lead := tally.Leader(); lead >= opts.Margin {
				out.Entry = e
				out.Replica = r.Replica
				out.Found = true
				return out
			}
		}
	}
	// Budget exhausted: return the best-supported version seen, if any.
	if e, votes, _ := tally.Leader(); votes > 0 {
		out.Entry = e
		out.Found = true
	}
	return out
}

// PopulateIndex installs each entry at every peer currently covering its
// key (directory.Covering: path and key in a prefix relation), using global
// knowledge, and returns the number of copies placed. This is an
// experiment-setup oracle (the paper likewise assumes a consistent index
// exists before measuring search and update behaviour); real insertions go
// through Insert/Update.
//
// A catalog costs what it installs: the community is grouped by path once,
// and a key at least as long as the deepest path is covered by exactly the
// groups at its prefixes, one lookup each. A key shorter than that is also
// covered by the peers below it, and a handful of entries do not repay the
// grouping: those scan the community. Entries apply in the order given
// either way, so every store sees the same sequence.
func PopulateIndex(d *directory.Directory, entries ...store.Entry) int {
	var groups map[bitpath.Path][]addr.Addr
	deepest := 0
	if len(entries) >= populateGroupFrom {
		groups = d.ReplicaGroups()
		for path := range groups {
			deepest = max(deepest, path.Len())
		}
	}
	n := 0
	for _, e := range entries {
		if groups == nil || e.Key.Len() < deepest {
			for _, p := range d.All() {
				if bitpath.Comparable(p.Path(), e.Key) {
					p.Store().Apply(e)
					n++
				}
			}
			continue
		}
		for l := 0; l <= deepest; l++ {
			for _, a := range groups[e.Key.Prefix(l)] {
				d.Peer(a).Store().Apply(e)
				n++
			}
		}
	}
	return n
}

// populateGroupFrom is the number of entries from which PopulateIndex groups
// the community: at 20 000 peers the grouping (a map insert per peer) costs
// four to five scans (a prefix test per peer), 3.0 ms against 0.7 ms.
const populateGroupFrom = 8
