package core

import (
	"math/rand"
	"slices"

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
	// resolve the query, forcing the search back to an alternative reference.
	Backtracks int
}

// RouteStep is the Fig. 2 decision at one peer, free of state and I/O: the
// peer's path, the number l of leading key bits already consumed by routing
// and the remaining query suffix key decide whether the peer is responsible
// or, if not, through which reference level the search continues and with
// which suffix. The asker's walk (Walk) takes every decision from here, and
// a visited peer answers by it (Answer).
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

// Answer is a visited peer's side of a Fig. 2 search, from its own state:
// its path, whether it is responsible for the suffix key with l bits of that
// path consumed (RouteStep), and otherwise the references of the level the
// search continues at, appended to room. A node answers a KindQuery with it.
func Answer(a *peer.Peer, l int, key bitpath.Path, room []addr.Addr) (path bitpath.Path, matched bool, refs []addr.Addr) {
	path = a.Path()
	matched, next, _ := RouteStep(path, l, key)
	if !matched {
		refs = a.AppendRefs(room, next)
	}
	return path, matched, refs
}

// Query performs the randomized depth-first search of Fig. 2: starting at
// peer a, it routes the request for key p across the peers' references,
// backtracking through alternative references when a contacted subtree
// fails (offline peers).
//
// The search only ever contacts online peers; the starting peer itself is
// used as-is (the caller decides whether offline peers may issue queries).
func Query(d *directory.Directory, a *peer.Peer, p bitpath.Path, rng *rand.Rand) QueryResult {
	var w Walk
	w.Start(a.Addr(), p, rng, false)
	w.through(d, a)
	return w.QueryResult
}

// QueryTraced runs the same search as Query and also returns its route: one
// span per peer visited, in visit order, backtracking included — the tool
// behind pgridsim's -trace flag, route learning and the routing tests. Span
// ids are the 1-based visit indexes, each span's parent the previous visit; a
// found route names at each peer the reference it went on through (Ref) and
// ends at the responsible peer. Latencies stay zero and the trace id is the
// caller's.
func QueryTraced(d *directory.Directory, a *peer.Peer, p bitpath.Path, rng *rand.Rand) trace.Trace {
	var w Walk
	w.Start(a.Addr(), p, rng, true)
	w.through(d, a)
	return trace.Trace{Key: p, Found: w.Found, Messages: w.Messages, Backtracks: w.Backtracks, Spans: w.Spans}
}

// through drives w through the directory from start, visited as-is; a peer
// offline or unknown does not answer.
func (w *Walk) through(d *directory.Directory, start *peer.Peer) {
	for to, _, _, ok := w.Next(); ok; to, _, _, ok = w.Next() {
		q := start
		if w.depth > 0 { // reached through a reference
			if q = d.Peer(to); q == nil || !q.Online() {
				continue
			}
		}
		if next := w.Arrive(q.Path()); next > 0 { // Answer, deciding once
			w.Go(q.AppendRefs(w.room[w.used:w.used:w.roomSize], next))
		}
	}
}

// Walk is the Fig. 2 search as its asker runs it, one visit at a time: Next
// names the peer, key suffix and path bits consumed (query(a, p, l)); a driver
// visits it — through the directory (Query), or with a call — and hands the
// answer (Answer) to Arrive and Go, or, offline, calls Next again. The walk takes
// every decision and draw (the references, popped with the asker's one rng),
// so every driver takes one course at one cost; Messages counts the visits
// answered beyond the first. A zero Walk in its driver's frame runs one search
// from Start, allocating nothing while the route fits.
type Walk struct {
	QueryResult
	Spans []trace.Span // the route, when Start asked for it (QueryTraced)

	rng    *rand.Rand
	traced bool
	first  bool // Next has not named the start yet
	start  addr.Addr
	key    bitpath.Path
	next   int          // the level Arrive decided to go on at,
	rest   bitpath.Path // with this suffix

	depth    int // frames in use
	frames   [walkDepth]walkFrame
	deeper   []walkFrame // the frames past walkDepth
	used     int         // the room the frames' references take
	roomSize int         // the room a walk may use: all of it
	// room holds the references of every level a search is routing through
	// at once: 256 addresses cover a path of 12 levels at the paper's refmax
	// 20. A level that does not fit is copied to the heap, with the same draws.
	room [256]addr.Addr
}

// walkDepth is the frames a Walk holds in itself: a frame is at a level of its
// peer's path deeper than its parent's (the wrong-side stop), so a route is at
// most as deep as the longest path — 12 in the experiments.
const walkDepth = 16

// walkFrame is one peer the search goes on from, with its references not yet
// tried: room[lo:lo+n], or spill[:n] where they did not fit the room.
type walkFrame struct {
	lo, n int
	spill []addr.Addr
	rest  bitpath.Path // the suffix the references are sent
	next  int          // their level: they arrive with next-1 bits consumed
	span  int          // the peer's span, when traced
	tried addr.Addr    // the reference whose subtree is being searched
}

// Start begins the search for key at start with rng, collecting the route
// in Spans when traced.
func (w *Walk) Start(start addr.Addr, key bitpath.Path, rng *rand.Rand, traced bool) {
	w.rng, w.traced, w.first, w.start, w.key, w.roomSize = rng, traced, true, start, key, len(w.room)
}

// Next returns the peer to visit, the key suffix to send it and the bits of
// its path consumed, drawn from the deepest level with a reference left; ok
// is false once the search has found or run out of references.
func (w *Walk) Next() (to addr.Addr, key bitpath.Path, level int, ok bool) {
	if w.first {
		w.first = false
		return w.start, w.key, 0, true
	}
	for !w.Found && w.depth > 0 {
		f := w.frame(w.depth - 1)
		if f.n == 0 { // the peer's subtree resolved nothing
			if w.depth--; f.spill == nil {
				w.used = f.lo
			}
			if w.depth > 0 {
				w.backtrack()
			}
			continue
		}
		refs := f.spill
		if refs == nil {
			refs = w.room[f.lo:]
		}
		f.tried, refs = addr.PopRandom(refs[:f.n], w.rng)
		f.n = len(refs)
		return f.tried, f.rest, f.next - 1, true
	}
	return addr.Nil, bitpath.Empty, 0, false
}

// Arrive takes the path the peer Next named answered with and decides: the
// search ends there (Found), backtracks, or goes on (next > 0) through the
// references of level next, which the driver then hands to Go.
func (w *Walk) Arrive(path bitpath.Path) (next int) {
	to, key, l, fwd := w.start, w.key, 0, w.depth > 0 // the start, or a reference of the deepest frame
	if fwd {
		f := w.frame(w.depth - 1)
		to, key, l = f.tried, f.rest, f.next-1
		w.Messages++
	}
	span := len(w.Spans)
	if w.traced {
		w.Spans = append(w.Spans, trace.Span{ID: uint64(span + 1), Parent: uint64(span),
			Peer: to, Path: path, Level: l, Ref: addr.Nil})
	}
	matched, next, rest := RouteStep(path, l, key)
	switch {
	case matched:
		w.Found, w.Peer = true, to
		if w.traced {
			w.Spans[span].Matched = true
			for i := 0; i < w.depth; i++ {
				f := w.frame(i)
				w.Spans[f.span].Ref = f.tried
			}
		}
	case fwd && rest.Len() == key.Len():
		// A reference that satisfies Sec. 2 leads to a peer that matches at
		// least one more key bit. This one matches none: the reference was on
		// the wrong side (a corrupted table), and going on from here could
		// circle among such references forever.
		w.backtrack()
	default:
		w.next, w.rest = next, rest
		return next
	}
	return 0
}

// Go makes the peer Arrive decided to go on from the deepest frame, with
// refs, its references of that level.
func (w *Walk) Go(refs []addr.Addr) {
	if w.depth >= walkDepth {
		w.deeper = append(w.deeper[:w.depth-walkDepth], walkFrame{})
	}
	f := w.frame(w.depth)
	f.lo, f.n, f.spill, f.rest, f.next, f.span, f.tried = w.used, len(refs), nil, w.rest, w.next, len(w.Spans)-1, addr.Nil
	switch {
	case f.n > w.roomSize-w.used:
		f.spill = slices.Clone(refs)
	case f.n > 0 && &refs[0] != &w.room[w.used]: // not appended to the room already
		copy(w.room[w.used:], refs)
	}
	if f.spill == nil {
		w.used += f.n
	}
	w.depth++
}

// backtrack books a subtree that resolved nothing at its parent, the deepest
// frame.
func (w *Walk) backtrack() {
	w.Backtracks++
	if w.traced {
		w.Spans[w.frame(w.depth-1).span].Backtracked = true
	}
}

func (w *Walk) frame(i int) *walkFrame {
	if i < walkDepth {
		return &w.frames[i]
	}
	return &w.deeper[i-walkDepth]
}
