package node

import (
	"fmt"
	"sort"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// Observe answers an observe request with exactly the columns req asks for,
// each from the feature that owns it — and from a feature the node runs
// without: repair off answers Enabled=false, which stays distinguishable from
// "peer unknown" (a transport error); history and telemetry off answer empty
// columns. A triggered repair round runs first, so every column
// reports the state it left. It is what a peer's KindObserve gets back, and
// what the node's own admin port serves without counting a served RPC.
func (n *Node) Observe(req *wire.ObserveReq) *wire.ObserveResp {
	asks := req.Asks
	resp := new(wire.ObserveResp)
	if asks&wire.AskRepair != 0 {
		if asks&wire.AskRepairNow != 0 && n.repairer != nil {
			n.repairer.Tick()
		}
		st := n.repairer.Status()
		resp.Repair = &st
	}
	if asks&wire.AskLinks != 0 {
		resp.Links = &wire.InfoResp{Addr: n.Addr(), Entries: n.Store().Len()}
		resp.Links.Path, resp.Links.Refs, resp.Links.Buddies = n.links()
	}
	if asks&wire.AskHealth != 0 {
		var probes []health.LevelProbe // the per-level tallies, which frequent pollers leave out
		if asks&wire.AskLiveness != 0 {
			probes = n.htr.Snapshot()
		}
		resp.Health = &wire.HealthColumn{Digest: health.Of(n.self, probes), Rounds: n.htr.Rounds()}
	}
	if asks&wire.AskMetrics != 0 {
		snap := n.tel.MetricsSnapshot()
		resp.Metrics = &snap
	}
	if asks&wire.AskHistory != 0 {
		dump := n.history.Dump(time.Duration(req.WindowNS), int(req.MaxPoints))
		resp.History = &dump
	}
	if asks&wire.AskTraces != 0 {
		resp.Traces = &wire.TracesColumn{Total: n.rec.Total(), Traces: n.rec.Snapshot(req.TraceLimit)}
	}
	return resp
}

// Observe asks the peer at a the one operator question req names, in one
// KindObserve: the single-peer read behind `pgridctl observe`. An answer
// without every column asked for is ErrMalformed, counted under observe.
func (c *Client) Observe(a addr.Addr, req wire.ObserveReq) (*wire.ObserveResp, error) {
	asks := req.Asks
	resp, err := c.tr.Call(a, &wire.Message{Kind: wire.KindObserve, From: addr.Nil, Observe: &req})
	if err == nil && (resp.ObserveResp == nil || !resp.ObserveResp.Answers(asks)) {
		err = fmt.Errorf("%w: node %v answered observe request with kind %v", ErrMalformed, a, resp.Kind)
	}
	if err != nil {
		return nil, err
	}
	return resp.ObserveResp, nil
}

// WalkResult is one community walk. Reached lists the peers that answered
// and Unreachable the peers some reached peer referenced that could not be
// asked (offline, crashed, unknown to the transport, or answering without
// their links), both sorted. Violations lists every followed reference whose
// answered target breaks the Section 2 property, by peer, level, then target.
// Each asked column is filed from what the reached peers answered: Digests
// (sorted by address), Repairs and Dumps. Messages is the cost in
// frames sent: one per contact, answered or not.
type WalkResult struct {
	Reached     []addr.Addr
	Unreachable []addr.Addr
	Violations  []Violation
	Digests     []health.Digest
	Repairs     []repair.Status
	Dumps       map[addr.Addr]telemetry.HistoryDump
	Messages    int
}

// Violation is one followed reference that breaks the Section 2 property:
// From's reference at Level names To, whose answered path is not a valid
// reference for From's.
type Violation struct {
	From     addr.Addr
	FromPath bitpath.Path
	Level    int
	To       addr.Addr
	ToPath   bitpath.Path
}

func (v Violation) String() string {
	return fmt.Sprintf("%v level %d → %v: path %s is not a valid reference for %s", v.From, v.Level, v.To, v.ToPath, v.FromPath)
}

// Walk is the one community walk, behind `pgridctl cluster`: breadth-first
// from the peer at start along every reference and buddy link, one
// KindObserve per peer asking req's columns and the links the walk follows,
// which it then judges with repair.ValidRef where the target answered too.
// A transport error, or an answer without links, makes the peer Unreachable
// and never aborts the walk; of an answer that lacks another asked column
// the columns it has are filed, with no second round trip. There is no path
// for a peer that does not know KindObserve, because the one wire cannot produce the
// KindError such a path would wait for: an unknown kind decodes as
// wire.ErrCorrupt, the server drops the connection, and the caller sees a
// transient loss.
func (c *Client) Walk(start addr.Addr, req wire.ObserveReq) WalkResult {
	req.Asks |= wire.AskLinks
	res := WalkResult{Dumps: make(map[addr.Addr]telemetry.HistoryDump)}
	links := make(map[addr.Addr]*wire.InfoResp)
	visited := map[addr.Addr]bool{start: true}
	queue := []addr.Addr{start}
	enqueue := func(rs wire.RefSet) {
		for _, r := range rs.Addrs {
			if !visited[r] {
				visited[r] = true
				queue = append(queue, r)
			}
		}
	}

	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		ask := req // each call sends a request of its own
		resp, err := c.tr.Call(a, &wire.Message{Kind: wire.KindObserve, From: addr.Nil, Observe: &ask})
		res.Messages++
		if err != nil {
			res.Unreachable = append(res.Unreachable, a)
			continue
		}
		o := resp.ObserveResp
		if o == nil || o.Links == nil {
			res.Unreachable = append(res.Unreachable, a)
			continue
		}
		from := o.Links.Addr
		res.Reached = append(res.Reached, from)
		links[from] = o.Links
		if o.Health != nil {
			res.Digests = append(res.Digests, o.Health.Digest)
		}
		if o.Repair != nil {
			res.Repairs = append(res.Repairs, *o.Repair)
		}
		if o.History != nil {
			res.Dumps[from] = *o.History
		}
		for _, rs := range o.Links.Refs {
			enqueue(rs)
		}
		enqueue(o.Links.Buddies)
	}
	sort.Slice(res.Reached, func(i, j int) bool { return res.Reached[i] < res.Reached[j] })
	sort.Slice(res.Unreachable, func(i, j int) bool { return res.Unreachable[i] < res.Unreachable[j] })
	sort.Slice(res.Digests, func(i, j int) bool { return res.Digests[i].Addr < res.Digests[j].Addr })
	for _, a := range res.Reached {
		l := links[a]
		for i, rs := range l.Refs {
			for _, r := range rs.ToSet().Sorted() {
				if q, ok := links[r]; ok && !repair.ValidRef(l.Path, i+1, q.Path) {
					res.Violations = append(res.Violations, Violation{a, l.Path, i + 1, r, q.Path})
				}
			}
		}
	}
	return res
}
