package node

import (
	"fmt"
	"math/rand"
	"slices"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/store"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// Client drives the multi-peer protocols — breadth-first replica search,
// update propagation, majority reads, prefix search — from outside the
// community, over any Transport. A client is what pgridctl is, and what an
// application embedding a peer uses for operations that span replicas.
// Unlike the single-peer request handlers in Node, these walks are
// client-driven: the client fetches routing state (Info) and decides where
// to go next, which is how a P2P client without its own grid position
// naturally behaves.
type Client struct {
	tr  Transport
	rng *rand.Rand
}

// NewClient returns a client over the given transport, seeded for
// reproducible walks.
func NewClient(tr Transport, seed int64) *Client {
	return &Client{tr: tr, rng: rand.New(rand.NewSource(seed))}
}

// ask is the single-peer read behind TraceQuery and Observe: one
// request, and an answer in which got does not find the payload
// that request asks for is ErrMalformed — a misbehaving peer is
// operationally a different problem from a churned one.
// Transport errors (an unreachable peer, or a reachable one answering
// KindError) come back as they are. Like every caller, ask reads nothing of
// its request once the call has returned.
func (c *Client) ask(a addr.Addr, req wire.Message, got func(*wire.Message) bool) (*wire.Message, error) {
	kind := req.Kind
	resp, err := c.tr.Call(a, &req)
	if err != nil {
		return nil, err
	}
	if !got(resp) {
		return nil, fmt.Errorf("%w: node %v answered %v request with kind %v", ErrMalformed, a, kind, resp.Kind)
	}
	return resp, nil
}

// TraceQuery routes one fully-sampled search for key via the peer at
// start and returns the assembled hop-by-hop route. The trace context
// rides inside the wire query message, so every node the search visits
// appends a span and records the route in its flight recorder — this is
// the client behind `pgridctl trace`.
func (c *Client) TraceQuery(start addr.Addr, key bitpath.Path) (trace.Trace, error) {
	ctx := &trace.SpanContext{
		TraceID: trace.NewTraceID(c.rng.Uint64(), uint64(start)),
		Budget:  trace.DefaultBudget,
		Sampled: true,
	}
	resp, err := c.ask(start, wire.Message{Kind: wire.KindQuery, From: addr.Nil,
		Query: &wire.QueryReq{Key: key, Ctx: ctx}}, func(m *wire.Message) bool { return m.QueryResp != nil })
	if err != nil {
		return trace.Trace{}, err
	}
	q := resp.QueryResp
	return trace.Trace{TraceID: ctx.TraceID, Key: key, Found: q.Found,
		Messages: q.Messages, Backtracks: q.Backtracks, Spans: q.Spans}, nil
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

// readOnce routes a query via the peer at start with the read riding on it,
// sent in call: the responsible peer the search ends at answers from its own
// store in the response that reports it found, so a read is one call and costs
// the client→start message and the Fig. 2 hops — what core.ReadOnce charges,
// plus the message into the community.
func (c *Client) readOnce(call *wire.QueryCall, start addr.Addr, key bitpath.Path, name string) ReadResult {
	out := ReadResult{Replica: addr.Nil, Queries: 1}
	resp, err := c.tr.Call(start, call.Fill(addr.Nil, key, 0, nil, &wire.GetReq{Key: key, Name: name}))
	if err != nil {
		return out
	}
	q := resp.QueryResp
	if q == nil {
		return out
	}
	out.Messages = 1 + q.Messages
	if q.Found {
		out.Replica, out.Entry, out.Found = q.Peer, q.Entry, q.Has
	}
	return out
}

// Lookup reads (key, name) once via the peer at start — the non-repetitive
// read.
func (c *Client) Lookup(start addr.Addr, key bitpath.Path, name string) ReadResult {
	return c.readOnce(new(wire.QueryCall), start, key, name)
}

// MajorityRead implements the repetitive-search read over the network:
// repeated routed reads through random entry points until one version
// leads by margin distinct replicas (budget maxQueries), falling back to
// the best-supported version. Every read sends the same query, filled again in
// one call.
func (c *Client) MajorityRead(entries []addr.Addr, key bitpath.Path, name string, margin, maxQueries int) ReadResult {
	if margin <= 0 {
		margin = 3
	}
	if maxQueries <= 0 {
		maxQueries = 64
	}
	var tally core.Tally
	out := ReadResult{Replica: addr.Nil}
	call := new(wire.QueryCall)
	for out.Queries < maxQueries && len(entries) > 0 {
		r := c.readOnce(call, entries[c.rng.Intn(len(entries))], key, name)
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
