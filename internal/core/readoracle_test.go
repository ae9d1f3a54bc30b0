package core

import (
	"math/rand"
	"slices"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/store"
	"pgrid/internal/trie"
)

// oracleQuery is the Fig. 2 search as it was written before the query room:
// every level's references are cloned into fresh memory. It also reports in
// need the most addresses the levels of one route held at once, which is
// what the room has to hold.
func oracleQuery(d *directory.Directory, a *peer.Peer, p bitpath.Path, l int, rng *rand.Rand, res *QueryResult, held int, need *int) bool {
	matched, next, rest := RouteStep(a.Path(), l, p)
	if matched {
		res.Peer = a.Addr()
		return true
	}
	refs := a.RefsAt(next).Slice()
	held += len(refs)
	*need = max(*need, held)
	for len(refs) > 0 {
		var r addr.Addr
		r, refs = addr.PopRandom(refs, rng)
		q := d.Peer(r)
		if q == nil || !q.Online() {
			continue
		}
		res.Messages++
		if oracleQuery(d, q, rest, next-1, rng, res, held, need) {
			return true
		}
		res.Backtracks++
	}
	return false
}

// oracleReplicaSearch is the breadth-first replica search as it was written
// before the seen list: a visited map and a queue of peers.
func oracleReplicaSearch(d *directory.Directory, start *peer.Peer, key bitpath.Path, recbreadth int, rng *rand.Rand) ReplicaResult {
	var res ReplicaResult
	visited := map[addr.Addr]bool{start.Addr(): true}
	queue := []*peer.Peer{start}
	var refs []addr.Addr
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		covers, lo, hi := ReplicaStep(a.Path(), key)
		if covers {
			res.Found = append(res.Found, a.Addr())
		}
		for level := lo; level <= hi; level++ {
			followed := 0
			refs = addr.ShuffledInto(refs, a.AppendRefs(refs[:0], level), rng)
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

// oracleUpdate is Update's replica count and cost as it was computed before
// the found list: the union of repetition oracle searches in a map. It
// applies nothing.
func oracleUpdate(d *directory.Directory, key bitpath.Path, recbreadth, repetition int, rng *rand.Rand) UpdateResult {
	found := map[addr.Addr]bool{}
	var out UpdateResult
	for i := 0; i < repetition; i++ {
		start := d.RandomOnlinePeer(rng)
		if start == nil {
			continue
		}
		res := oracleReplicaSearch(d, start, key, recbreadth, rng)
		out.Messages += res.Messages
		for _, a := range res.Found {
			found[a] = true
		}
	}
	out.Replicas = len(found)
	return out
}

// TestReadDrawsMatchOracles: past every room — a route whose levels hold more
// addresses than the query room, a level wider than the BFS reference room, a
// walk reaching more peers than its seen room — the reads take the draws the
// clone-per-level search and the map-based BFS take. On an ideal grid of
// refmax 64 and depth 6 (384 addresses on a route through every level) and
// on a small one, with half the peers offline so that searches backtrack:
// Found, Peer, Messages, Backtracks, the replicas found, an update's count
// and cost, and the rng's next draw all match. The walk is also run in rooms of
// 0, 8 and 64 addresses, where nearly every level spills. (The large grid
// takes keys of at least 4 bits: a shorter one covers a thousand peers, and
// its walks only slow the test down.)
func TestReadDrawsMatchOracles(t *testing.T) {
	overRoom, overSeen, backtracks := 0, 0, 0
	for _, g := range []struct {
		n, depth, refmax int
		keys, minKeyLen  int
	}{
		{4096, 6, 64, 100, 4},
		{256, 4, 4, 300, 1},
	} {
		setup := newRng(int64(g.n))
		d := trie.BuildIdeal(g.n, g.depth, g.refmax, setup)
		d.SampleOnline(setup, 0.5)
		for i := 0; i < g.keys; i++ {
			key := bitpath.Random(setup, g.minKeyLen+setup.Intn(g.depth+3-g.minKeyLen))
			start := d.RandomOnlinePeer(setup)
			seed := setup.Int63()

			want, need := QueryResult{}, 0
			oracle := rand.New(rand.NewSource(seed))
			want.Found = oracleQuery(d, start, key, 0, oracle, &want, 0, &need)
			wantNext := oracle.Int63()
			if need > len(Walk{}.room) {
				overRoom++
			}
			backtracks += want.Backtracks
			rng := rand.New(rand.NewSource(seed))
			if got := Query(d, start, key, rng); got != want || rng.Int63() != wantNext {
				t.Fatalf("refmax %d, key %d (%s from %v): Query = %+v, the clone-per-level search %+v (or the next draw differs)",
					g.refmax, i, key, start.Addr(), got, want)
			}
			for _, size := range []int{0, 8, 64} {
				rng := rand.New(rand.NewSource(seed))
				var w Walk
				w.Start(start.Addr(), key, rng, false)
				w.roomSize = size
				w.through(d, start)
				if got := w.QueryResult; got != want || rng.Int63() != wantNext {
					t.Fatalf("refmax %d, key %d (%s from %v) in a room of %d: the walk = %+v, the clone-per-level search %+v (or the next draw differs)",
						g.refmax, i, key, start.Addr(), size, w.QueryResult, want)
				}
			}

			for _, recbreadth := range []int{2, 8, 64} {
				oracle := rand.New(rand.NewSource(seed))
				want := oracleReplicaSearch(d, start, key, recbreadth, oracle)
				if want.Messages+1 > 128 {
					overSeen++
				}
				rng := rand.New(rand.NewSource(seed))
				got := ReplicaSearch(d, start, key, recbreadth, rng)
				if !slices.Equal(got.Found, want.Found) || got.Messages != want.Messages || rng.Int63() != oracle.Int63() {
					t.Fatalf("refmax %d, key %d (%s from %v), recbreadth %d: ReplicaSearch found %v for %d messages, the map-based search %v for %d (or the next draw differs)",
						g.refmax, i, key, start.Addr(), recbreadth, got.Found, got.Messages, want.Found, want.Messages)
				}
			}

			oracle = rand.New(rand.NewSource(seed))
			wantUpdate := oracleUpdate(d, key, 2, 2, oracle)
			rng = rand.New(rand.NewSource(seed))
			got := Update(d, store.Entry{Key: key, Name: "f", Holder: 1, Version: uint64(i + 1)}, 2, 2, rng)
			if got != wantUpdate || rng.Int63() != oracle.Int63() {
				t.Fatalf("refmax %d, key %d (%s): Update = %+v, the map-based union %+v (or the next draw differs)", g.refmax, i, key, got, wantUpdate)
			}
		}
	}
	t.Logf("%d routes past the query room, %d walks past the seen room, %d backtracks", overRoom, overSeen, backtracks)
	if overRoom == 0 || overSeen == 0 || backtracks == 0 {
		t.Errorf("the reads stayed inside the rooms or never backtracked: %d routes past the query room, %d walks past the seen room, %d backtracks",
			overRoom, overSeen, backtracks)
	}
}
