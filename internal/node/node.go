// Package node implements a real, message-passing P-Grid node: the same
// algorithms as internal/core, but executed over a Transport, so the system
// runs as actual communicating processes — in-process over channels for the
// concurrent examples and tests, or across machines over TCP
// (cmd/pgridnode). The simulator validates the algorithms; this package
// validates that they survive being distributed.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/health"
	"pgrid/internal/peer"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// Transport delivers a request to another node and returns its response.
// Implementations must be safe for concurrent use. Errors mean the target
// is unreachable (offline, crashed, unknown) — the algorithms treat that
// exactly like the paper's online(peer(r)) = false.
type Transport interface {
	Call(to addr.Addr, msg *wire.Message) (*wire.Message, error)
}

// ErrOffline reports a call to a node that is not reachable.
var ErrOffline = errors.New("node: peer offline")

// Node is one networked P-Grid peer.
type Node struct {
	self *peer.Peer
	cfg  core.Config
	tr   Transport
	tel  *telemetry.Instruments

	rec        *trace.Recorder
	sampleProb float64

	history *telemetry.History

	htr *health.Tracker

	repairer *Repairer

	mu  sync.Mutex
	rng *rand.Rand
}

// New creates a node with the given address, configuration, transport and
// seed. The node starts with the empty path (whole key space).
func New(a addr.Addr, cfg core.Config, tr Transport, seed int64) *Node {
	return &Node{
		self: peer.New(a),
		cfg:  cfg,
		tr:   tr,
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Addr returns the node's address.
func (n *Node) Addr() addr.Addr { return n.self.Addr() }

// Path returns the node's current responsibility path.
func (n *Node) Path() bitpath.Path { return n.self.Path() }

// Peer exposes the underlying peer state for assertions in tests.
func (n *Node) Peer() *peer.Peer { return n.self }

// Store returns the node's data layer.
func (n *Node) Store() *store.Store { return n.self.Store() }

// SetOnline flips the node's availability; transports consult it.
func (n *Node) SetOnline(v bool) { n.self.SetOnline(v) }

// Online reports availability.
func (n *Node) Online() bool { return n.self.Online() }

// SetTelemetry attaches an instrument bundle (nil disables). Call before
// the node starts serving; the field is not synchronized.
func (n *Node) SetTelemetry(t *telemetry.Instruments) { n.tel = t }

// Telemetry returns the attached instruments (possibly nil).
func (n *Node) Telemetry() *telemetry.Instruments { return n.tel }

// EnableTracing attaches a flight recorder and sets the probability that
// a query starting at this node is sampled for distributed tracing
// (clamped to [0, 1]). Queries arriving with a sampled context are
// always traced, regardless of the local probability — that is how
// pgridctl forces a fully-sampled route. Call before the node starts
// serving; the fields are not synchronized.
func (n *Node) EnableTracing(rec *trace.Recorder, sampleProb float64) {
	n.rec = rec
	n.sampleProb = min(max(sampleProb, 0), 1)
}

// EnableHistory attaches a telemetry history ring (nil disables); a
// sampler (RunSampler) fills it and Observe serves it. Call
// before the node starts serving; the field is not synchronized.
func (n *Node) EnableHistory(h *telemetry.History) { n.history = h }

// Handle dispatches one incoming request and returns the response message.
// Transports call this on the receiving side. Handling is timed into the
// per-kind served-latency histograms; error replies count as served
// errors. A sampled traced query stamps its trace ID into the latency
// histogram's tail-bucket exemplar slot; the id rides in the metrics
// column's ExIdx/ExTrace, which `pgridctl -json observe <id> ask=metrics`
// shows.
func (n *Node) Handle(m *wire.Message) *wire.Message {
	rpc := rpcKind(n.tel, m.Kind)
	rpc.Served()
	start := time.Now()
	resp := n.handle(m)
	rpc.ServedDone(time.Since(start), resp.Kind == wire.KindError, traceIDOf(m))
	return resp
}

// traceIDOf extracts the sampled trace ID riding on a request, 0 when
// the message carries none.
func traceIDOf(m *wire.Message) uint64 {
	if m.Query != nil && m.Query.Ctx != nil && m.Query.Ctx.Sampled {
		return m.Query.Ctx.TraceID
	}
	return 0
}

// badRequest is the one check a request passes before its handler runs: it
// names what makes m unservable, or returns "". The codec decodes a bare
// kind-and-sender frame cleanly, with every payload pointer nil, and does
// not bound the signed Level and Depth: a negative level is no position in
// any path, and a negative depth would never reach RecMax. Nor does it hold
// a query's two keys to each other: the read that rides along names the whole
// key and Key the suffix still to be routed, so a pair that disagrees would
// have a peer answer for a key the search did not bring to it. And it admits
// any exchange snapshot that fits a frame, while the Fig. 3 decision runs
// under the state lock and de-duplicates each level it reads in quadratic
// time: a snapshot has one level per path bit and, from a peer configured
// like this one, at most RefMax references in each — which is what the
// decision's scratch is sized for. An info rider names exactly one operation
// and applies one entry, a KindApply at least one: the codec decodes nothing
// else, but an in-process caller can build anything.
func (n *Node) badRequest(m *wire.Message) string {
	switch {
	case m.Kind == wire.KindInfo && m.Info != nil && (m.Info.Apply == nil) == (m.Info.Scan == nil):
		return "an info rider carries one of an apply and a scan"
	case m.Kind == wire.KindInfo && m.Info != nil && m.Info.Apply != nil && len(m.Info.Apply.Entries) != 1:
		return fmt.Sprintf("an info rider applies one entry, not %d", len(m.Info.Apply.Entries))
	case m.Kind == wire.KindQuery && m.Query == nil,
		m.Kind == wire.KindExchange && m.Exchange == nil,
		m.Kind == wire.KindApply && m.Apply == nil,
		m.Kind == wire.KindGet && m.Get == nil,
		m.Kind == wire.KindScan && m.Scan == nil,
		m.Kind == wire.KindObserve && m.Observe == nil:
		return fmt.Sprintf("missing payload for kind %v", m.Kind)
	case m.Kind == wire.KindApply && len(m.Apply.Entries) == 0:
		return "an apply carries no entry"
	case m.Kind == wire.KindQuery && m.Query.Level < 0:
		return fmt.Sprintf("negative query level %d", m.Query.Level)
	case m.Kind == wire.KindQuery && m.Query.Read != nil && !m.Query.Read.Key.HasSuffix(m.Query.Key):
		return fmt.Sprintf("read key %s does not end in the routed key %s", m.Query.Read.Key, m.Query.Key)
	case m.Kind == wire.KindExchange && m.Exchange.Depth < 0:
		return fmt.Sprintf("negative exchange depth %d", m.Exchange.Depth)
	case m.Kind == wire.KindExchange && len(m.Exchange.Refs) > m.Exchange.Path.Len():
		return fmt.Sprintf("exchange snapshot has %d reference levels for a path of length %d",
			len(m.Exchange.Refs), m.Exchange.Path.Len())
	case m.Kind == wire.KindExchange:
		for i, rs := range m.Exchange.Refs {
			if len(rs.Addrs) > n.cfg.RefMax {
				return fmt.Sprintf("exchange snapshot has %d references at level %d, refmax is %d",
					len(rs.Addrs), i+1, n.cfg.RefMax)
			}
		}
	}
	return ""
}

// handle is the untimed dispatch switch behind Handle.
func (n *Node) handle(m *wire.Message) *wire.Message {
	if bad := n.badRequest(m); bad != "" {
		return &wire.Message{Kind: wire.KindError, From: n.Addr(), Error: bad}
	}
	switch m.Kind {
	case wire.KindQuery:
		// A request decoded off the wire carries the room it is answered in.
		x := m.Query.Answer()
		x.Reply = wire.Message{Kind: wire.KindQueryResp, From: n.Addr(), QueryResp: &x.Resp}
		n.handleQuery(m.Query, m.From != addr.Nil, &x.Resp)
		return &x.Reply
	case wire.KindExchange:
		resp := n.handleExchange(m.From, m.Exchange)
		return &wire.Message{Kind: wire.KindExchangeResp, From: n.Addr(), ExchangeResp: resp}
	case wire.KindApply:
		resp, a := reply[wire.ApplyResp](n, wire.KindApplyResp)
		resp.ApplyResp = a
		for _, e := range m.Apply.Entries {
			if n.Store().Apply(e) {
				a.Changed = true
			}
		}
		return resp
	case wire.KindGet:
		resp, g := reply[wire.GetResp](n, wire.KindGetResp)
		resp.GetResp = g
		g.Entry, g.Found = n.Store().Get(m.Get.Key, m.Get.Name)
		return resp
	case wire.KindInfo:
		return n.handleInfo(m.Info)
	case wire.KindScan:
		resp, s := reply[wire.ScanResp](n, wire.KindScanResp)
		resp.ScanResp = s
		s.Entries = n.Store().PrefixScan(m.Scan.Prefix)
		return resp
	case wire.KindObserve:
		return &wire.Message{Kind: wire.KindObserveResp, From: n.Addr(), ObserveResp: n.Observe(m.Observe)}
	default:
		return &wire.Message{Kind: wire.KindError, From: n.Addr(),
			Error: fmt.Sprintf("unexpected message kind %v", m.Kind)}
	}
}

// reply returns a response of the given kind from this node and the payload P
// it carries, as the one object they are sent as; the caller sets the payload
// pointer that goes with the kind.
func reply[P any](n *Node, kind wire.Kind) (m *wire.Message, p *P) {
	p = wire.Fused[P](&m)
	m.Kind, m.From = kind, n.Addr()
	return m, p
}

// links reads the peer's path, per-level references and buddy list under
// one lock, straight into wire form.
func (n *Node) links() (path bitpath.Path, refs []wire.RefSet, buddies wire.RefSet) {
	peer.Edit(n.self, func(e peer.Editor) { path, refs, buddies = wireLinks(e, nil) })
	return path, refs, buddies
}

// wireLinks copies the peer's link state into wire form: every level's
// references and then the buddies, as sets cut from one address array, the
// array and the set slice taken from room (nil for none) where they fit.
func wireLinks(e peer.Editor, room *wire.LinkRoom) (path bitpath.Path, refs []wire.RefSet, buddies wire.RefSet) {
	path = e.Path()
	total := e.Buddies().Len()
	for level := 1; level <= path.Len(); level++ {
		total += e.RefsAt(level).Len()
	}
	refs, all := room.Take(path.Len(), total)
	for i := range refs {
		refs[i], all = wire.AppendSet(all, e.RefsAt(i+1))
	}
	buddies, _ = wire.AppendSet(all, e.Buddies())
	return path, refs, buddies
}

// handleInfo answers KindInfo with the peer's links, and serves the rider r
// (nil for none) if the path it answers with covers r's key — the
// core.ReplicaStep decision the asking client takes on that same path. Both
// happen under the one lock an exchange narrows the path under, so an entry
// cannot land after the exchange has evicted what the peer no longer covers.
// The answer is one object, a decoded rider's own room: the links ride in it.
func (n *Node) handleInfo(r *wire.InfoReq) *wire.Message {
	x := r.Answer()
	i := &x.Resp
	x.Reply = wire.Message{Kind: wire.KindInfoResp, From: n.Addr(), InfoResp: i}
	peer.Edit(n.self, func(e peer.Editor) {
		i.Path, i.Refs, i.Buddies = wireLinks(e, &x.Room)
		if r == nil {
			return
		}
		if covers, _, _ := core.ReplicaStep(i.Path, r.Key()); !covers {
			return
		}
		if r.Apply != nil {
			x.Applied.Changed = n.Store().Apply(r.Apply.Entries[0])
			i.Applied = &x.Applied
		} else {
			x.Scan(n.Store(), r.Scan)
		}
	})
	i.Addr, i.Entries = n.Addr(), n.Store().Len()
	return &x.Reply
}

// --- query ----------------------------------------------------------------

// Query starts the Fig. 2 depth-first search at this node. With tracing
// enabled (EnableTracing), a sampleProb fraction of queries carry a
// trace context and leave a route record in the flight recorders of
// every node they visit.
func (n *Node) Query(key bitpath.Path) core.QueryResult {
	req := &wire.QueryReq{Key: key, Level: 0}
	if n.rec != nil && n.sampleProb > 0 {
		n.mu.Lock()
		sampled := n.rng.Float64() < n.sampleProb
		var id uint64
		if sampled {
			id = trace.NewTraceID(n.rng.Uint64(), uint64(n.Addr()))
		}
		n.mu.Unlock()
		if sampled {
			req.Ctx = &trace.SpanContext{TraceID: id, Budget: trace.DefaultBudget, Sampled: true}
		}
	}
	var resp wire.QueryResp
	n.handleQuery(req, false, &resp)
	n.tel.ObserveQuery(resp.Found, resp.Messages, resp.Backtracks)
	if n.tel.EventsOn() {
		n.tel.EmitQuery(key.String(), resp.Found, resp.Messages, resp.Backtracks)
	}
	return core.QueryResult{Found: resp.Found, Peer: resp.Peer, Messages: resp.Messages, Backtracks: resp.Backtracks}
}

// handleQuery is query(a, p, l) with remote recursion: references are
// contacted through the transport and each successful downstream call
// contributes to the message count. A read riding on the request is answered
// by the peer the search ends at and comes back with the route. The outcome
// is written into resp, which the caller made (zero) where it is to be sent
// from. When the request carries a sampled trace context the node appends its
// own span (and everything its subtree reported) to the response and records
// the subtree route in its flight recorder; routing decisions are identical
// either way. forwarded says a peer sent q on here (its envelope names a
// sender; a client's and a node's own search name none): core.query's fwd.
func (n *Node) handleQuery(q *wire.QueryReq, forwarded bool, resp *wire.QueryResp) {
	path := n.self.Path()
	l := q.Level
	if l > path.Len() {
		l = path.Len()
	}

	tracing := q.Ctx.Alive()
	var span trace.Span
	var start time.Time
	var childCtx *trace.SpanContext
	if tracing {
		start = time.Now()
		n.mu.Lock()
		sid := n.rng.Uint64()
		n.mu.Unlock()
		span = trace.Span{ID: sid, Parent: q.Ctx.Parent, Peer: n.Addr(),
			Path: path, Level: l, Ref: addr.Nil}
		if q.Ctx.Budget > 0 {
			cc := q.Ctx.Child(sid)
			childCtx = &cc
		}
	}

	n.routeQuery(q, forwarded, resp, path, l, &span, childCtx, tracing)

	if tracing {
		span.LatencyNS = int64(time.Since(start))
		spans := make([]trace.Span, 0, 1+len(resp.Spans))
		spans = append(spans, span)
		spans = append(spans, resp.Spans...)
		resp.Spans = spans
		// The key is copied: a served request's room is reused once its
		// reply is written (wire.Room).
		key := bitpath.Path(strings.Clone(string(q.Key)))
		n.rec.Record(trace.Trace{TraceID: q.Ctx.TraceID, Key: key, Found: resp.Found,
			Messages: resp.Messages, Backtracks: resp.Backtracks, Spans: resp.Spans})
	}
}

// routeQuery is the routing half of handleQuery: the Fig. 2 decision
// (core.RouteStep, shared with the simulator) and the reference walk over
// the transport, in a call of its own (wire.Forward), filled again for each
// reference tried. span and childCtx are only touched when tracing is set;
// resp.Spans accumulates the downstream spans in visit order (the caller's
// own span is prepended by handleQuery).
func (n *Node) routeQuery(q *wire.QueryReq, forwarded bool, resp *wire.QueryResp, path bitpath.Path, l int, span *trace.Span, childCtx *trace.SpanContext, tracing bool) {
	matched, next, rest := core.RouteStep(path, l, q.Key)
	if matched {
		if tracing {
			span.Matched = true
		}
		resp.Found, resp.Peer, resp.Path = true, n.Addr(), path
		if r := q.Read; r != nil {
			resp.Entry, resp.Has = n.Store().Get(r.Key, r.Name)
		}
		return
	}
	if forwarded && rest.Len() == q.Key.Len() {
		// A reference that satisfies Sec. 2 leads to a peer that matches at
		// least one more key bit. This one matches none: the reference was on
		// the wrong side (a corrupted table), and forwarding again could
		// circle among such references for ever. As core.query, answer not
		// found.
		return
	}

	var buf [16]addr.Addr // holds a level's references (RefMax is a handful) off the heap
	refs := n.self.RefsInto(buf[:0], next)
	fwd, rest, read := wire.Forward(q, rest)
	for refs.Len() > 0 {
		var r addr.Addr
		n.mu.Lock()
		r = refs.PopRandom(n.rng)
		n.mu.Unlock()
		down, err := n.tr.Call(r, fwd.Fill(n.Addr(), rest, next-1, childCtx, read))
		n.tel.RefLiveness(next, err == nil && down.QueryResp != nil)
		if err != nil || down.QueryResp == nil {
			continue // unreachable reference: try the next one
		}
		resp.Messages += 1 + down.QueryResp.Messages
		resp.Backtracks += down.QueryResp.Backtracks
		if tracing {
			resp.Spans = append(resp.Spans, down.QueryResp.Spans...)
		}
		if down.QueryResp.Found {
			resp.Found = true
			resp.Peer = down.QueryResp.Peer
			resp.Path = down.QueryResp.Path
			resp.Entry, resp.Has = down.QueryResp.Entry, down.QueryResp.Has
			if tracing {
				span.Ref = r
			}
			return
		}
		resp.Backtracks++ // the contacted subtree resolved nothing
		if tracing {
			span.Backtracked = true
		}
	}
}

// --- exchange --------------------------------------------------------------

// Exchange initiates the Fig. 3 construction interaction with the peer at
// `to`. It sends this node's snapshot; the responder computes the joint
// decision, applies its own half, and returns ours, which we apply only if
// our path is unchanged since the snapshot (stale replies are dropped, as a
// real peer would). Recursive exchanges (case 4) run from both sides.
func (n *Node) Exchange(to addr.Addr) error {
	return n.exchange(to, 0)
}

func (n *Node) exchange(to addr.Addr, depth int) error {
	if to == n.Addr() {
		return nil
	}
	path, refs, _ := n.links()
	req := &wire.ExchangeReq{Path: path, Refs: refs, Depth: depth}
	resp, err := n.tr.Call(to, &wire.Message{Kind: wire.KindExchange, From: n.Addr(), Exchange: req})
	if err != nil {
		return err
	}
	if resp.ExchangeResp == nil {
		return fmt.Errorf("node: exchange with %v: bad response kind %v", to, resp.Kind)
	}
	n.applyExchange(to, resp.ExchangeResp, depth)
	return nil
}

// applyExchange installs the responder's decision on the initiator side:
// the response becomes the same core.SideDecision the responder applied to
// itself. What the network supplied is checked here, not in the kernel: a
// reply computed from a path we have since left is dropped, and reference
// levels outside that path are ignored (peer.Editor never installs a
// self-reference). Fig. 3 changes at most the common level and the one
// below it, so a reply naming more levels than that is no decision and is
// dropped whole, like a stale one.
func (n *Node) applyExchange(from addr.Addr, r *wire.ExchangeResp, depth int) {
	side := core.SideDecision{Extend: r.Extend, ExtendBit: r.ExtendBit,
		ExtendRefs: r.ExtendRefs.ToSet(), Buddy: addr.Nil}
	if r.AddBuddy {
		side.Buddy = from
	}
	if len(r.SetRefs) > len(side.Levels) {
		return
	}
	slot := 0
	for level, rs := range r.SetRefs {
		if level >= 1 && level <= r.BasePath.Len() {
			side.Levels[slot], side.Refs[slot] = level, rs.ToSet()
			slot++
		}
	}
	if slot == 2 && side.Levels[0] > side.Levels[1] { // the map's order is not the levels'
		side.Levels[0], side.Levels[1] = side.Levels[1], side.Levels[0]
		side.Refs[0], side.Refs[1] = side.Refs[1], side.Refs[0]
	}
	stale := false
	peer.Edit(n.self, func(e peer.Editor) {
		if stale = e.Path() != r.BasePath; !stale {
			side.Apply(e)
		}
	})
	if stale {
		return
	}
	// Hand over entries that left our narrowed region, and install the
	// responder's handover.
	if r.Extend {
		keep := r.BasePath.Append(r.ExtendBit)
		if evicted := n.Store().Evict(keep); len(evicted) > 0 {
			// Best-effort: the responder covers the vacated side and takes
			// the whole handover in one apply, as core.handOver hands it.
			n.tr.Call(from, &wire.Message{Kind: wire.KindApply, From: n.Addr(),
				Apply: &wire.ApplyReq{Entries: evicted}})
		}
	}
	for _, entry := range r.Handover {
		n.Store().Apply(entry)
	}
	for _, fwd := range r.ForwardTo {
		n.exchange(fwd, depth+1) // unreachable targets just fail silently
	}
}

// snapshotSide presents the initiator's ExchangeReq snapshot to the Fig. 3
// kernel as the a1 side of the meeting. It is network input: RefsAt hands out
// a de-duplicated copy, of a level badRequest has bounded.
type snapshotSide struct {
	from addr.Addr
	req  *wire.ExchangeReq
}

func (s snapshotSide) Addr() addr.Addr    { return s.from }
func (s snapshotSide) Path() bitpath.Path { return s.req.Path }
func (s snapshotSide) RefsAt(level int) addr.Set {
	if level >= 1 && level <= len(s.req.Refs) {
		return s.req.Refs[level-1].ToSet()
	}
	return addr.Set{}
}

// handleExchange is the responder's half: core.DecideExchange computes the
// Fig. 3 decision from the initiator's snapshot (a1) and this node's state
// (a2); the node applies its own side and describes the initiator's in the
// response. The node has no data-aware split gate and no meet-time replica
// reconciliation: both need wire fields the frozen protocol lacks.
func (n *Node) handleExchange(from addr.Addr, req *wire.ExchangeReq) *wire.ExchangeResp {
	var dec core.ExchangeDecision
	// This call's scratch: the decision's sets live in it, and everything
	// below copies what it ships (FromSet, Slice) before the call returns.
	sc := core.NewExchangeScratch(n.cfg, 0)
	peer.Edit(n.self, func(e peer.Editor) {
		n.mu.Lock()
		dec = core.DecideExchange(snapshotSide{from, req}, e, n.cfg, req.Depth, true, n.rng, sc)
		n.mu.Unlock()
		dec.A2.Apply(e)
	})

	n.tel.ExchangeCase(dec.Case)
	if n.tel.EventsOn() {
		n.tel.EmitExchange(telemetry.ExchangeCaseName(dec.Case),
			dec.CommonLen, req.Depth, int(from), int(n.Addr()))
	}

	theirs := &dec.A1
	resp := &wire.ExchangeResp{
		BasePath:   req.Path,
		Extend:     theirs.Extend,
		ExtendBit:  theirs.ExtendBit,
		ExtendRefs: wire.FromSet(theirs.ExtendRefs),
		SetRefs:    map[int]wire.RefSet{},
		AddBuddy:   theirs.Buddy != addr.Nil,
		ForwardTo:  theirs.Forward.Slice(),
		// Our own specialization (cases 1 and 3) may strand entries on the
		// initiator's side; evicting against the current path is a no-op in
		// every other case.
		Handover: n.Store().Evict(n.self.Path()),
	}
	for i, level := range theirs.Levels {
		if level > 0 {
			resp.SetRefs[level] = wire.FromSet(theirs.Refs[i])
		}
	}

	// Our half of the case-4 recursion, after releasing the state lock.
	for _, fwd := range dec.A2.Forward.Slice() {
		n.exchange(fwd, req.Depth+1)
	}
	return resp
}
