package core

import (
	"math/rand"
	"slices"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
)

// ReplicaResult reports the outcome of a breadth-first replica search.
type ReplicaResult struct {
	// Found holds the addresses of peers covering the key (peers whose path
	// is in a prefix relationship with the key), in discovery order.
	Found []addr.Addr
	// Messages is the number of peers contacted.
	Messages int
}

// ReplicaStep is the decision of the breadth-first replica search at one
// visited peer, free of state and I/O: whether the peer's path covers key
// (the two are in a prefix relationship) and which reference levels lo…hi
// the search follows from it. A covering peer reaches the sibling regions
// under the key through its references at every level below the key's
// length (none when the key is at least as long as the path); any other
// peer routes towards the key's region through the level of the first
// diverging bit, whose references agree with the key there. The simulator
// (ReplicaSearch) and the networked client (node.Client.ReplicaSearch) both
// take the decision from here; they differ only in how a peer is reached.
func ReplicaStep(path, key bitpath.Path) (covers bool, lo, hi int) {
	c := bitpath.CommonPrefixLen(path, key)
	if c == path.Len() || c == key.Len() {
		return true, key.Len() + 1, path.Len()
	}
	return false, c + 1, c + 1
}

// ReplicaSearch performs the breadth-first search used by the update
// strategies of Section 5.2: unlike Query, which stops at the first
// responsible peer, it follows up to recbreadth references at every level —
// both while routing towards the key's region and, once inside it, across
// every deeper level — collecting all covering peers it can reach.
//
// Only online peers are contacted. The starting peer costs no message.
func ReplicaSearch(d *directory.Directory, start *peer.Peer, key bitpath.Path, recbreadth int, rng *rand.Rand) ReplicaResult {
	var res ReplicaResult
	res.Found, res.Messages = replicaSearch(d, start, key, recbreadth, rng, nil)
	return res
}

// replicaSearch is ReplicaSearch appending the covering peers it reaches to
// found, in discovery order, unless found holds them already, and returning
// the list with the messages spent. start is a peer of d.
func replicaSearch(d *directory.Directory, start *peer.Peer, key bitpath.Path, recbreadth int, rng *rand.Rand, found []addr.Addr) ([]addr.Addr, int) {
	if start == nil {
		return found, 0
	}
	earlier := found // what the caller found before this walk
	// seen holds every peer the search has reached, in the order it reached
	// them: those before next are visited, the rest are the queue. A search
	// reaches a few dozen peers, so a scan of seen is the visited check, and
	// the walk's bookkeeping stays in this frame (node.Client.replicaSearch
	// keeps the same list). On the Sec. 5.2 grid one update walk in ten
	// reaches more than 64 peers; of 100 000, none reached 128 (the most
	// was 104). A walk past the room — a prefix search of a short prefix
	// reaches thousands — also marks the peers it reached in a bitmap over
	// the directory, so that the visited check stays one lookup.
	var seenRoom [128]addr.Addr
	seen := append(seenRoom[:0], start.Addr())
	var marks []uint64
	var refsRoom [32]addr.Addr
	refs := refsRoom[:0] // one level's references at a time, copied and shuffled in this storage

	for next := 0; next < len(seen); next++ {
		a := d.Peer(seen[next])
		covers, lo, hi := ReplicaStep(a.Path(), key)
		if covers && !slices.Contains(earlier, a.Addr()) {
			found = append(found, a.Addr())
		}
		for level := lo; level <= hi; level++ {
			// Follow up to recbreadth fresh online references of the level.
			followed := 0
			refs = addr.ShuffledInto(refs, a.AppendRefs(refs[:0], level), rng)
			for _, r := range refs {
				if followed >= recbreadth {
					break
				}
				// Most references of the Sec. 5.2 grid are offline (70 %),
				// and a peer not yet reached is a scan of all of seen:
				// the online check comes first.
				if q := d.Peer(r); q == nil || !q.Online() || reached(seen, marks, r) {
					continue
				}
				seen = append(seen, r)
				followed++
				switch {
				case marks != nil:
					marks[r/64] |= 1 << (r % 64)
				case len(seen) > len(seenRoom):
					marks = make([]uint64, (d.N()+63)/64)
					for _, s := range seen {
						marks[s/64] |= 1 << (s % 64)
					}
				}
			}
		}
	}
	return found, len(seen) - 1
}

// reached reports whether the walk has reached r, a peer of the directory:
// a scan of seen, or past the room a look at the walk's marks.
func reached(seen []addr.Addr, marks []uint64, r addr.Addr) bool {
	if marks != nil {
		return marks[r/64]&(1<<(r%64)) != 0
	}
	return slices.Contains(seen, r)
}
