package core

import (
	"math/rand"

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
	if start == nil {
		return res
	}
	visited := map[addr.Addr]bool{start.Addr(): true}
	queue := []*peer.Peer{start}
	var refs []addr.Addr // one level's references at a time, copied and shuffled in this storage

	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		covers, lo, hi := ReplicaStep(a.Path(), key)
		if covers {
			res.Found = append(res.Found, a.Addr())
		}
		for level := lo; level <= hi; level++ {
			// Follow up to recbreadth fresh online references of the level.
			followed := 0
			refs = a.RefsInto(refs, level).ShuffledInto(refs, rng)
			for _, r := range refs {
				if followed >= recbreadth {
					break
				}
				if visited[r] {
					continue
				}
				q := d.Peer(r)
				if q == nil || !q.Online() {
					continue
				}
				visited[r] = true
				res.Messages++
				queue = append(queue, q)
				followed++
			}
		}
	}
	return res
}
