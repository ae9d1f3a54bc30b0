package node

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/store"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// Client drives the multi-peer protocols — the Fig. 2 search and the reads
// on it, breadth-first replica search, update propagation, majority reads,
// prefix search — from outside the community, over any Transport. A client
// is what pgridctl is, and what an application embedding a peer uses for
// operations that span replicas. Every walk is client-driven: each peer
// answers from its own state (a query visit, an Info) and the client
// decides where to go next, which is how a P2P client without its own grid
// position naturally behaves. A client is used by one goroutine at a time.
type Client struct {
	tr   Transport
	rng  *rand.Rand
	call wire.QueryCall // every visit of every search, filled anew
}

// NewClient returns a client over the given transport, seeded for
// reproducible walks.
func NewClient(tr Transport, seed int64) *Client {
	return &Client{tr: tr, rng: rand.New(rand.NewSource(seed))}
}

// Route walks the Fig. 2 search for key from the peer at start and returns the
// route, ending at the responsible peer when found; sampled, every visited node
// records its own span too (`pgridctl trace`). The error is start's.
func (c *Client) Route(start addr.Addr, key bitpath.Path, sampled bool) (trace.Trace, error) {
	tr, ctx := trace.Trace{Key: key}, (*trace.SpanContext)(nil)
	if sampled {
		tr.TraceID = trace.NewTraceID(c.rng.Uint64(), uint64(start))
		ctx = &trace.SpanContext{TraceID: tr.TraceID, Sampled: true}
	}
	var w core.Walk
	w.Start(start, key, c.rng, true)
	_, _, err := (visits{tr: c.tr, call: &c.call, ctx: ctx}).walk(&w, nil)
	tr.Found, tr.Messages, tr.Backtracks, tr.Spans = w.Found, w.Messages, w.Backtracks, w.Spans
	return tr, err
}

// visits carries a walk (core.Walk) over tr for a client or the node self,
// which answers its own visits and draws its shared rng under its lock. Every
// other visit is one call filled anew in call, ctx (nil for none) riding along
// naming the visit before; each visit is timed into its span.
type visits struct {
	tr   Transport
	self *Node
	call *wire.QueryCall
	ctx  *trace.SpanContext
}

// walk runs w with read (nil for none) on every visit, returning the
// responsible peer's answer (nil for none), the calls answered and the first
// visit's error; an answer without a QueryResp is ErrMalformed, and missed.
func (v visits) walk(w *core.Walk, read *wire.GetReq) (found *wire.QueryResp, calls int, err error) {
	from := addr.Nil
	if v.self != nil {
		from = v.self.Addr()
	}
	for first := true; ; first = false {
		if v.self != nil {
			v.self.mu.Lock()
		}
		to, key, l, ok := w.Next()
		if v.self != nil {
			v.self.mu.Unlock()
		}
		if !ok {
			return found, calls, err
		}
		start := time.Now()
		var a *wire.QueryResp
		if v.self != nil && to == from {
			a = new(wire.QueryResp)
			v.self.answerQuery(&wire.QueryReq{Key: key, Level: l, Read: read}, a, nil)
		} else {
			if v.ctx != nil {
				v.ctx.Parent = uint64(len(w.Spans))
			}
			resp, cerr := v.tr.Call(to, v.call.Fill(from, key, l, v.ctx, read))
			if cerr == nil && resp.QueryResp == nil {
				cerr = fmt.Errorf("%w: node %v answered a query with kind %v", ErrMalformed, to, resp.Kind)
			}
			if cerr != nil {
				if first {
					err = cerr
				}
				continue
			}
			calls++
			a = resp.QueryResp
		}
		if w.Arrive(a.Path) > 0 {
			w.Go(a.Refs.Addrs)
		}
		if w.Spans != nil {
			w.Spans[len(w.Spans)-1].LatencyNS = int64(time.Since(start))
		}
		if w.Found {
			found = a
		}
	}
}

// ReplicaResult is core.ReplicaResult; here Messages counts the visits, the
// start peer's included.
type ReplicaResult = core.ReplicaResult

// ReplicaSearch performs the breadth-first replica search of Section 5.2
// over the network, starting from the peer at start: it fetches each
// visited peer's routing state and follows up to recbreadth references per
// level, collecting every reachable peer whose path covers key.
func (c *Client) ReplicaSearch(start addr.Addr, key bitpath.Path, recbreadth int) ReplicaResult {
	var res ReplicaResult
	res.Messages = c.replicaSearch(start, key, recbreadth, nil,
		func(a addr.Addr, _ *wire.InfoResp) { res.Found = append(res.Found, a) })
	return res
}

// replicaSearch is ReplicaSearch with rider (nil for none) on every visit:
// each peer that covers key performs it on the way, and found sees each such
// peer, in visit order, with its answer, which is only valid during the call.
// A visit therefore costs one message whatever it carries, as core.Update and
// Grid.PrefixSearch charge it; replicaSearch returns the visits. A covering
// peer whose answer lacks the rider's is malformed and routed around like an
// unreachable one: the search does not report as done what was not done.
func (c *Client) replicaSearch(start addr.Addr, key bitpath.Path, recbreadth int, rider *wire.InfoReq, found func(addr.Addr, *wire.InfoResp)) (messages int) {
	// seen holds every peer the search has reached, in the order it reached
	// them: those before next are visited, the rest are the queue. A search
	// reaches a few dozen peers, so a scan of seen is the visited check, and
	// the walk's bookkeeping stays in this frame.
	var seenRoom [64]addr.Addr
	seen := append(seenRoom[:0], start)
	var refsRoom [16]addr.Addr
	refs := refsRoom[:0]   // one level's references at a time, copied and shuffled in this storage
	call := new(visitCall) // one per search, filled again for each visit

	for next := 0; next < len(seen); next++ {
		a := seen[next]
		resp, err := c.tr.Call(a, call.fill(rider, key))
		messages++ // the visit (counts even if it fails: it was sent)
		if err != nil {
			continue // unreachable: the walk routes around it
		}
		info := resp.InfoResp
		if info == nil {
			continue // malformed: routed around like an unreachable peer
		}
		covers, lo, hi := core.ReplicaStep(info.Path, key)
		if covers && !riderAnswered(info, rider) {
			continue
		}
		if covers {
			found(a, info)
		}
		for level := lo; level <= min(hi, len(info.Refs)); level++ {
			// A well-formed level is a set: the draws are core.ReplicaSearch's,
			// and seen drops whatever a malformed one repeats.
			followed := 0
			refs = addr.ShuffledInto(refs, info.Refs[level-1].Addrs, c.rng)
			for _, r := range refs {
				if followed >= recbreadth {
					break
				}
				if r == addr.Nil || slices.Contains(seen, r) {
					continue
				}
				seen = append(seen, r)
				followed++
			}
		}
	}
	return messages
}

// riderAnswered reports whether info carries the answer to rider, which a nil
// rider needs none of. A "same" answer to a scan rider names a digest it held.
func riderAnswered(info *wire.InfoResp, rider *wire.InfoReq) bool {
	switch s := info.Scanned; {
	case rider == nil:
		return true
	case rider.Apply != nil:
		return info.Applied != nil
	default:
		return s != nil && (!s.Same || slices.Contains(rider.Scan.Held, s.Digest))
	}
}

// visitCall is a BFS visit as the one object it is sent as: the envelope,
// and the rider with its own copy of the operation. Like wire.QueryCall it is
// its sender's again once Transport.Call has returned, and is filled anew for
// each visit.
type visitCall struct {
	m wire.Message
	i wire.InfoReq
	a wire.ApplyReq
	e [1]store.Entry
	s wire.ScanReq
	h [wire.MaxHeld]uint64
}

// fill makes c the Info request carrying rider (nil for a plain one), whose
// operation is about key, and returns the message to send. A scan rider's
// prefix is key and its held digests are copied: nothing a scan rider points
// to is kept in c, so a caller's held digests can stay in its frame.
func (c *visitCall) fill(rider *wire.InfoReq, key bitpath.Path) *wire.Message {
	c.m = wire.Message{Kind: wire.KindInfo, From: addr.Nil}
	if rider != nil {
		c.i = wire.InfoReq{}
		if rider.Apply != nil {
			c.e[0] = rider.Apply.Entries[0]
			c.a = wire.ApplyReq{Entries: c.e[:]}
			c.i.Apply = &c.a
		}
		if r := rider.Scan; r != nil {
			c.s = wire.ScanReq{Prefix: key, Held: append(c.h[:0], r.Held...)}
			c.i.Scan = &c.s
		}
		c.m.Info = &c.i
	}
	return &c.m
}

// Publish spreads an entry over the replicas of its key with `repetition`
// breadth-first passes from the given entry points (cycled as needed), the
// entry riding on every visit, and returns how many distinct replicas applied
// it and the message cost: the visits, as core.Update charges them, plus the
// message into the community for each pass.
func (c *Client) Publish(entries []addr.Addr, e store.Entry, recbreadth, repetition int) (replicas, messages int) {
	if len(entries) == 0 {
		return 0, 0
	}
	rider := &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{e}}}
	var room [32]addr.Addr
	applied := room[:0] // the distinct replicas, over every pass
	for i := 0; i < repetition; i++ {
		messages += c.replicaSearch(entries[i%len(entries)], e.Key, recbreadth, rider, func(a addr.Addr, _ *wire.InfoResp) {
			if !slices.Contains(applied, a) {
				applied = append(applied, a)
			}
		})
	}
	return len(applied), messages
}

// ReadResult is core.ReadResult.
type ReadResult = core.ReadResult

// Lookup reads (key, name) once via the peer at start — the non-repetitive
// read: the walk carries the read on every visit and the responsible peer it
// ends at answers it, so a read costs the calls answered, what core.ReadOnce
// charges plus the message into the community.
func (c *Client) Lookup(start addr.Addr, key bitpath.Path, name string) ReadResult {
	var w core.Walk
	w.Start(start, key, c.rng, false)
	found, calls, _ := (visits{tr: c.tr, call: &c.call}).walk(&w, &wire.GetReq{Key: key, Name: name})
	out := ReadResult{Replica: addr.Nil, Queries: 1, Messages: calls}
	if found != nil {
		out.Replica, out.Entry, out.Found = w.Peer, found.Entry, found.Has
	}
	return out
}

// MajorityRead implements the repetitive-search read over the network:
// repeated routed reads through random entry points until one version
// leads by margin distinct replicas (budget maxQueries), falling back to
// the best-supported version.
func (c *Client) MajorityRead(entries []addr.Addr, key bitpath.Path, name string, margin, maxQueries int) ReadResult {
	if margin <= 0 {
		margin = 3
	}
	if maxQueries <= 0 {
		maxQueries = 64
	}
	var tally core.Tally
	out := ReadResult{Replica: addr.Nil}
	for out.Queries < maxQueries && len(entries) > 0 {
		r := c.Lookup(entries[c.rng.Intn(len(entries))], key, name)
		out.Queries++
		out.Messages += r.Messages
		if !r.Found || !tally.Vote(r.Replica, r.Entry) {
			continue
		}
		if e, _, lead := tally.Leader(); lead >= margin {
			out.Entry = e
			out.Found = true
			return out
		}
	}
	if e, votes, _ := tally.Leader(); votes > 0 {
		out.Entry = e
		out.Found = true
	}
	return out
}

// PrefixSearch searches breadth-first for the covering replicas of prefix,
// the scan riding on every visit, and merges their scans, freshest version
// per (key, name) winning. Replicas of one path hold the same index, so each
// visit names the range digests of the lists folded so far
// (the first wire.MaxHeld of them), a replica whose range is one of those
// answers "same" with the digest alone, and a list is folded once per digest.
// The message cost is the visits, as Grid.PrefixSearch charges them, plus the
// message into the community.
func (c *Client) PrefixSearch(start addr.Addr, prefix bitpath.Path, recbreadth int) ([]store.Entry, int) {
	var out store.Fold
	var room [wire.MaxHeld]uint64
	folded := room[:0] // the digests of the lists in out
	scan := wire.ScanReq{Prefix: prefix, Held: folded}
	messages := c.replicaSearch(start, prefix, recbreadth, &wire.InfoReq{Scan: &scan},
		func(_ addr.Addr, info *wire.InfoResp) {
			s := info.Scanned
			if s.Same || len(s.Entries) == 0 || slices.Contains(folded, s.Digest) {
				return
			}
			out.Add(s.Entries)
			folded = append(folded, s.Digest)
			scan.Held = folded[:min(len(folded), wire.MaxHeld)]
		})
	return out.Entries(), messages
}
