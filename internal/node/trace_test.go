package node

import (
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// wireTraceCluster hand-builds a 3-node grid over real TCP whose routing
// forces a query for key 11 submitted at node 0 through all three nodes:
//
//	node 0: path 0,  level-1 ref → 1
//	node 1: path 10, level-1 ref → 0, level-2 ref → 2
//	node 2: path 11, level-1 ref → 0, level-2 ref → 1
func wireTraceCluster(t *testing.T) ([]*Node, func()) {
	t.Helper()
	nodes, _, stop := startPooledCluster(t, 3, PoolConfig{})
	spec := []struct {
		path string
		refs []addr.Addr // one ref set per level
	}{
		{"0", []addr.Addr{1}},
		{"10", []addr.Addr{0, 2}},
		{"11", []addr.Addr{0, 1}},
	}
	for i, s := range spec {
		p := nodes[i].Peer()
		path := bitpath.MustParse(s.path)
		for level := 1; level <= path.Len(); level++ {
			if !p.ExtendFrom(path.Prefix(level-1), path.Bit(level), addr.NewSet(s.refs[level-1])) {
				stop()
				t.Fatalf("fixture build failed at node %d level %d", i, level)
			}
		}
		nodes[i].EnableTracing(trace.NewRecorder(16), 0) // recorder on, sampling off
	}
	return nodes, stop
}

// TestTCPDistributedTrace is the acceptance test: one traced query over
// real TCP must produce a single trace id with spans from every visited
// node, and each visited node's flight recorder — observed over the wire —
// must hold that trace id.
func TestTCPDistributedTrace(t *testing.T) {
	nodes, stop := wireTraceCluster(t)
	defer stop()

	cl := NewClient(nodes[0].tr, 42)
	key := bitpath.MustParse("11")
	tr, err := cl.TraceQuery(0, key)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Found || tr.TraceID == 0 {
		t.Fatalf("traced query failed: %+v", tr)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("spans = %+v, want one per visited node", tr.Spans)
	}
	// The route is 0 → 1 → 2 in visit order, one span per node, chained
	// by parent ids under the root.
	wantPeers := []addr.Addr{0, 1, 2}
	for i, s := range tr.Spans {
		if s.Peer != wantPeers[i] {
			t.Fatalf("span %d visited %v, want %v (route %s)", i, s.Peer, wantPeers[i], tr)
		}
		if s.ID == 0 {
			t.Errorf("span %d has zero id", i)
		}
	}
	if tr.Spans[0].Parent != 0 {
		t.Errorf("root span has parent %d", tr.Spans[0].Parent)
	}
	if tr.Spans[1].Parent != tr.Spans[0].ID || tr.Spans[2].Parent != tr.Spans[1].ID {
		t.Errorf("span parent chain broken: %+v", tr.Spans)
	}
	if tr.Spans[0].Ref != 1 || tr.Spans[1].Ref != 2 || tr.Spans[2].Ref != addr.Nil {
		t.Errorf("chosen references wrong: %+v", tr.Spans)
	}
	if !tr.Spans[2].Matched || tr.Spans[0].Matched {
		t.Errorf("matched flags wrong: %+v", tr.Spans)
	}
	if tr.Messages != len(tr.Spans)-1 {
		t.Errorf("messages = %d, want %d (one per non-root span)", tr.Messages, len(tr.Spans)-1)
	}
	for i, s := range tr.Spans[:2] {
		if s.LatencyNS <= 0 {
			t.Errorf("span %d over TCP has latency %d", i, s.LatencyNS)
		}
	}

	// Every visited node's flight recorder must hold the trace id,
	// observed over the wire.
	for i := range nodes {
		traces := observe(t, cl, addr.Addr(i), wire.ObserveReq{Asks: wire.AskTraces}).Traces
		total, recs := traces.Total, traces.Traces
		if total != 1 || len(recs) != 1 {
			t.Fatalf("node %d recorded %d traces (%d total), want 1", i, len(recs), total)
		}
		if recs[0].TraceID != tr.TraceID {
			t.Errorf("node %d recorded trace %x, want %x", i, recs[0].TraceID, tr.TraceID)
		}
		// A node's record covers its own span plus its whole subtree.
		if want := 3 - i; len(recs[0].Spans) != want {
			t.Errorf("node %d recorded %d spans, want %d", i, len(recs[0].Spans), want)
		}
	}
}

// TestTCPTraceBudget checks the hop budget: with budget 1 the context
// reaches one hop past the root and then stops propagating, without
// changing the routing outcome.
func TestTCPTraceBudget(t *testing.T) {
	nodes, stop := wireTraceCluster(t)
	defer stop()

	ctx := &trace.SpanContext{TraceID: 77, Budget: 1, Sampled: true}
	resp, err := nodes[0].tr.Call(0, &wire.Message{Kind: wire.KindQuery, From: addr.Nil,
		Query: &wire.QueryReq{Key: bitpath.MustParse("11"), Ctx: ctx}})
	if err != nil {
		t.Fatal(err)
	}
	q := resp.QueryResp
	if !q.Found || q.Peer != 2 {
		t.Fatalf("budgeted trace broke routing: %+v", q)
	}
	if len(q.Spans) != 2 {
		t.Fatalf("spans = %+v, want the 2 budgeted hops", q.Spans)
	}
	if q.Messages != 2 {
		t.Errorf("messages = %d: tracing must not change the cost metric", q.Messages)
	}
}

// TestUntracedQueryHasNoSpans pins backward-compatible behavior: a
// query without a context (what a pre-tracing peer sends) produces no
// spans and records nothing.
func TestUntracedQueryHasNoSpans(t *testing.T) {
	nodes, stop := wireTraceCluster(t)
	defer stop()

	resp, err := nodes[0].tr.Call(0, &wire.Message{Kind: wire.KindQuery, From: addr.Nil,
		Query: &wire.QueryReq{Key: bitpath.MustParse("11")}})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.QueryResp.Found || len(resp.QueryResp.Spans) != 0 {
		t.Fatalf("untraced query: %+v", resp.QueryResp)
	}
	for i, n := range nodes {
		if n.Recorder().Total() != 0 {
			t.Errorf("node %d recorded an untraced query", i)
		}
	}
}

// TestNodeQuerySampling checks the sampling knob on locally issued
// queries: probability 1 traces everything, probability 0 nothing.
func TestNodeQuerySampling(t *testing.T) {
	nodes, stop := wireTraceCluster(t)
	defer stop()

	key := bitpath.MustParse("11")
	nodes[0].EnableTracing(trace.NewRecorder(16), 1)
	if res := nodes[0].Query(key); !res.Found {
		t.Fatal("query failed")
	}
	if nodes[0].Recorder().Total() != 1 {
		t.Errorf("prob 1: recorded %d traces, want 1", nodes[0].Recorder().Total())
	}

	nodes[0].EnableTracing(trace.NewRecorder(16), 0)
	if res := nodes[0].Query(key); !res.Found {
		t.Fatal("query failed")
	}
	if nodes[0].Recorder().Total() != 0 {
		t.Errorf("prob 0: recorded %d traces, want 0", nodes[0].Recorder().Total())
	}

	// TraceQuery bypasses the probability entirely.
	res, tr := nodes[0].TraceQuery(key)
	if !res.Found || len(tr.Spans) != 3 || tr.TraceID == 0 {
		t.Fatalf("TraceQuery: res=%+v trace=%+v", res, tr)
	}
	if nodes[0].Recorder().Total() != 1 {
		t.Errorf("TraceQuery did not record")
	}
}

// Recorder returns the attached flight recorder (possibly nil).
func (n *Node) Recorder() *trace.Recorder { return n.rec }

// TraceQuery runs one fully-sampled search from this node, bypassing the
// sampling probability, and returns the assembled route alongside the
// result — the in-process twin of `pgridctl trace`.
func (n *Node) TraceQuery(key bitpath.Path) (core.QueryResult, trace.Trace) {
	n.mu.Lock()
	id := trace.NewTraceID(n.rng.Uint64(), uint64(n.Addr()))
	n.mu.Unlock()
	req := &wire.QueryReq{Key: key, Level: 0,
		Ctx: &trace.SpanContext{TraceID: id, Budget: trace.DefaultBudget, Sampled: true}}
	var resp wire.QueryResp
	n.handleQuery(req, false, &resp)
	n.tel.ObserveQuery(resp.Found, resp.Messages, resp.Backtracks)
	res := core.QueryResult{Found: resp.Found, Peer: resp.Peer, Messages: resp.Messages, Backtracks: resp.Backtracks}
	return res, trace.Trace{TraceID: id, Key: key, Found: resp.Found,
		Messages: resp.Messages, Backtracks: resp.Backtracks, Spans: resp.Spans}
}
