package core

import (
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/trace"
)

// QueryResult reports the outcome of a depth-first search.
type QueryResult struct {
	// Found reports whether a responsible peer was reached.
	Found bool
	// Peer is the address of the responsible peer when Found.
	Peer addr.Addr
	// Messages is the number of successful query calls to other peers —
	// the cost metric of Section 5.2. A query answered locally costs 0.
	Messages int
	// Backtracks is the number of contacted subtrees that failed to
	// resolve the query, forcing the search back to an alternative
	// reference — the routing-health signal behind the per-level liveness
	// metrics (a backtrack means a reference led nowhere useful).
	Backtracks int
}

// RouteStep is the Fig. 2 decision at one peer, free of state and I/O: the
// peer's path, the number l of leading key bits already consumed by routing
// and the remaining query suffix key decide whether the peer is responsible
// or, if not, through which reference level the search continues and with
// which suffix. The simulator (query) and the networked node
// (node.routeQuery) both take the decision from here; they differ only in
// how a reference is reached.
//
// The peer is responsible (matched) when its remaining path and the query
// are in a prefix relationship: either the query is exhausted within the
// path (the peer's region lies inside the query interval) or the path is a
// prefix of the query (its leaf index covers the key) — an l at or beyond
// the path length is the second case, and l is clamped to [0, len(path)]
// so that a level no peer could have sent cannot fault the walk. Otherwise
// the search continues at a reference of level next with the suffix rest,
// which arrives there with next-1 bits consumed.
func RouteStep(path bitpath.Path, l int, key bitpath.Path) (matched bool, next int, rest bitpath.Path) {
	l = max(0, min(l, path.Len()))
	rempath := path.Suffix(l)
	com := bitpath.CommonPrefixLen(key, rempath)
	if com == key.Len() || com == rempath.Len() {
		return true, 0, bitpath.Empty
	}
	return false, l + com + 1, key.Suffix(com)
}

// Query performs the randomized depth-first search of Fig. 2: starting at
// peer a, it routes the request for key p across the peers' references,
// backtracking through alternative references when a contacted subtree
// fails (offline peers).
//
// The search only ever contacts online peers; the starting peer itself is
// used as-is (the caller decides whether offline peers may issue queries).
func Query(d *directory.Directory, a *peer.Peer, p bitpath.Path, rng *rand.Rand) QueryResult {
	var res QueryResult
	var room queryRoom
	res.Found = query(d, a, p, 0, rng, &res, nil, room[:])
	return res
}

// queryRoom holds the references of every level a search is routing
// through at once, in the caller's frame: 256 addresses cover a path of 12
// levels at the paper's refmax 20. A search deeper or wider than that
// copies the levels past it onto the heap, with the same draws.
type queryRoom [256]addr.Addr

// QueryTraced runs the same search as Query and also returns its route: one
// span per peer visited, in visit order, backtracking included — the
// route-inspection tool behind pgridsim's -trace flag, route learning and
// the routing tests. Span ids are the 1-based visit indexes and each span's
// parent is the previous visit; latencies stay zero (the simulator measures
// cost in messages, not wall time) and the trace id is left to the caller.
// On a found route the last span is the responsible peer.
func QueryTraced(d *directory.Directory, a *peer.Peer, p bitpath.Path, rng *rand.Rand) trace.Trace {
	var res QueryResult
	var spans []trace.Span
	var room queryRoom
	res.Found = query(d, a, p, 0, rng, &res, &spans, room[:])
	return trace.Trace{Key: p, Found: res.Found, Messages: res.Messages,
		Backtracks: res.Backtracks, Spans: spans}
}

// query mirrors the paper's query(a, p, l): l is the number of leading path
// bits already consumed by routing, p is the remaining query suffix. A
// non-nil spans collects the route; it changes neither the walk nor the
// random draws. The level's references are copied to the front of room and
// the searches below take the rest; a level that does not fit is copied to
// the heap and leaves room to them whole.
func query(d *directory.Directory, a *peer.Peer, p bitpath.Path, l int, rng *rand.Rand, res *QueryResult, spans *[]trace.Span, room []addr.Addr) bool {
	path := a.Path()
	var idx int
	if spans != nil {
		idx = len(*spans)
		*spans = append(*spans, trace.Span{ID: uint64(idx + 1), Parent: uint64(idx),
			Peer: a.Addr(), Path: path, Level: l, Ref: addr.Nil})
	}
	matched, next, rest := RouteStep(path, l, p)
	if matched {
		res.Peer = a.Addr()
		if spans != nil {
			(*spans)[idx].Matched = true
		}
		return true
	}
	refs := a.RefsInto(room, next)
	if n := refs.Len(); n <= len(room) {
		room = room[n:]
	}
	for refs.Len() > 0 {
		r := refs.PopRandom(rng)
		q := d.Peer(r)
		if q == nil || !q.Online() {
			continue
		}
		res.Messages++
		if query(d, q, rest, next-1, rng, res, spans, room) {
			return true
		}
		res.Backtracks++
		if spans != nil {
			(*spans)[idx].Backtracked = true
		}
	}
	return false
}
