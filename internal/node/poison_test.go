package node

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
	"pgrid/internal/store"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// The ownership rule of the request path: a request belongs to whoever made
// it, and to nobody else once the call that carried it has returned — no
// layer, handler or recorder keeps a pointer into it. That is what lets
// routeQuery fill one queryCall again for each reference it tries, and it is
// the condition a pool of request messages would need. The tests below hold
// the product to it by overwriting every request the moment the rule says it
// is free, and demanding the same answers as without.

// poison overwrites a request and every payload it points to with values no
// caller sent.
func poison(m *wire.Message) {
	junk := store.Entry{Key: "10101", Name: "poisoned", Holder: 12345, Version: 1 << 60}
	if q := m.Query; q != nil {
		if q.Read != nil {
			*q.Read = wire.GetReq{Key: junk.Key, Name: junk.Name}
		}
		*q = wire.QueryReq{Key: junk.Key, Level: 3}
	}
	if m.Exchange != nil {
		*m.Exchange = wire.ExchangeReq{Path: junk.Key, Refs: []wire.RefSet{{Addrs: []addr.Addr{junk.Holder}}}, Depth: 1}
	}
	if m.Apply != nil {
		for i := range m.Apply.Entries {
			m.Apply.Entries[i] = junk
		}
	}
	if m.Get != nil {
		*m.Get = wire.GetReq{Key: junk.Key, Name: junk.Name}
	}
	if m.Scan != nil {
		m.Scan.Prefix = junk.Key
	}
	if r := m.Info; r != nil {
		if r.Apply != nil {
			r.Apply.Entries[0] = junk
		}
		if r.Scan != nil {
			r.Scan.Prefix = junk.Key
		}
		*r = wire.InfoReq{Scan: &wire.ScanReq{Prefix: junk.Key}}
	}
	if m.Observe != nil {
		*m.Observe = wire.ObserveReq{Asks: wire.AskTraces, TraceLimit: 1}
	}
	*m = wire.Message{Kind: wire.KindError, From: junk.Holder, Error: junk.Name}
}

// poisonTransport poisons each request as soon as its call has returned.
type poisonTransport struct{ inner Transport }

func (p poisonTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	resp, err := p.inner.Call(to, m)
	poison(m)
	return resp, err
}

// poisonWorkload is what the poisoned and the plain community must agree on:
// routed reads that hit and miss, majority reads, traced queries with the
// routes they leave in the flight recorders, a prefix search, a publish,
// an apply list, an observe, and reads with a quarter of the peers offline — where a handler
// whose first reference does not answer sends its query a second time.
type poisonWorkload struct {
	Lookups  []ReadResult
	Traces   []trace.Trace
	Recorded [][]trace.Trace
	Scanned  []store.Entry
	Applied  *wire.ApplyResp
	Observed *wire.ObserveResp
	Links    []peer.Snapshot
}

func runPoisonWorkload(t *testing.T, nodes []*Node, tr Transport, afterOp func()) poisonWorkload {
	t.Helper()
	var out poisonWorkload
	cl := NewClient(tr, 77)
	rng := rand.New(rand.NewSource(78))
	all := make([]addr.Addr, len(nodes))
	for i, n := range nodes {
		all[i] = n.Addr()
		n.EnableTracing(trace.NewRecorder(64), 0)
	}
	for i := 0; i < 150; i++ {
		key := bitpath.Random(rng, 4)
		start := all[rng.Intn(len(all))]
		out.Lookups = append(out.Lookups, cl.Lookup(start, key, []string{"f", "absent"}[i%2]))
		afterOp()
		if i%5 == 0 {
			out.Lookups = append(out.Lookups, cl.MajorityRead(all, key, "f", 2, 8))
			afterOp()
			tq, err := cl.TraceQuery(start, key)
			if err != nil {
				t.Fatal(err)
			}
			afterOp()
			out.Traces = append(out.Traces, tq)
		}
	}
	var online []addr.Addr
	for i, j := range rng.Perm(len(nodes)) {
		if nodes[j].SetOnline(i >= len(nodes)/4); nodes[j].Online() {
			online = append(online, all[j])
		}
	}
	retried := 0
	for i := 0; i < 150; i++ {
		res := cl.Lookup(online[rng.Intn(len(online))], bitpath.Random(rng, 4), "f")
		afterOp()
		out.Lookups = append(out.Lookups, res)
		if tq, err := cl.TraceQuery(online[rng.Intn(len(online))], bitpath.Random(rng, 4)); err == nil {
			out.Traces = append(out.Traces, tq)
			retried += tq.Backtracks
		}
		afterOp()
	}
	if retried == 0 {
		t.Fatal("no query backtracked with a quarter of the peers offline: no handler forwarded twice")
	}
	for _, n := range nodes {
		n.SetOnline(true)
	}
	e := store.Entry{Key: bitpath.MustParse("0110"), Name: "published", Holder: 5, Version: 9}
	replicas, msgs := cl.Publish(all[:2], e, 3, 2)
	afterOp()
	out.Lookups = append(out.Lookups, ReadResult{Messages: msgs, Queries: replicas}, cl.Lookup(all[7], e.Key, e.Name))
	afterOp()
	out.Scanned, _ = cl.PrefixSearch(all[3], bitpath.MustParse("01"), 3)
	afterOp()
	resp, err := tr.Call(all[9], &wire.Message{Kind: wire.KindApply, From: addr.Nil, Apply: &wire.ApplyReq{Entries: []store.Entry{
		{Key: "0000", Name: "listed", Holder: 1, Version: 2}, {Key: "0001", Name: "listed", Holder: 1, Version: 2}, e}}})
	if err != nil {
		t.Fatal(err)
	}
	afterOp()
	out.Applied = resp.ApplyResp
	if out.Observed, err = cl.Observe(all[9], wire.ObserveReq{Asks: wire.AskLinks | wire.AskHealth}); err != nil {
		t.Fatal(err)
	}
	afterOp()
	for _, n := range nodes {
		out.Recorded = append(out.Recorded, n.Recorder().Snapshot(0))
		out.Links = append(out.Links, n.Peer().Snapshot())
	}
	// Wall-clock latencies are the one thing two runs may not share.
	strip := func(spans []trace.Span) {
		for i := range spans {
			spans[i].LatencyNS = 0
		}
	}
	for i := range out.Traces {
		strip(out.Traces[i].Spans)
	}
	for _, rec := range out.Recorded {
		for i := range rec {
			strip(rec[i].Spans)
		}
	}
	return out
}

func comparePoisonWorkloads(t *testing.T, plain, poisoned poisonWorkload) {
	t.Helper()
	if len(plain.Traces) == 0 || len(plain.Scanned) == 0 || plain.Applied == nil || !plain.Applied.Changed || plain.Observed == nil {
		t.Fatalf("the workload idled: %d traces, %d scanned, applied %v, observed %v", len(plain.Traces), len(plain.Scanned), plain.Applied, plain.Observed)
	}
	for i := range plain.Lookups {
		if plain.Lookups[i] != poisoned.Lookups[i] {
			t.Fatalf("read %d: plain %+v, poisoned %+v", i, plain.Lookups[i], poisoned.Lookups[i])
		}
	}
	for i := range plain.Traces {
		if !reflect.DeepEqual(plain.Traces[i], poisoned.Traces[i]) {
			t.Fatalf("traced query %d:\n plain    %v\n poisoned %v", i, plain.Traces[i], poisoned.Traces[i])
		}
	}
	for i := range plain.Recorded {
		if !reflect.DeepEqual(plain.Recorded[i], poisoned.Recorded[i]) {
			t.Fatalf("flight recorder of node %d:\n plain    %v\n poisoned %v", i, plain.Recorded[i], poisoned.Recorded[i])
		}
	}
	if !reflect.DeepEqual(plain, poisoned) {
		t.Fatalf("scan, apply, observe or link state differ:\n plain    %+v %+v %+v\n poisoned %+v %+v %+v",
			plain.Scanned, plain.Applied, plain.Observed, poisoned.Scanned, poisoned.Applied, poisoned.Observed)
	}
}

// TestPoisonRequestsAfterCall: a community whose every transport — each
// node's and the client's — poisons the request once Call has returned is
// built by the same meetings into the same grid and answers lookups, majority
// reads, traced queries, a publish, a prefix search, an apply list and an
// observe exactly as
// one that leaves requests alone; the routes in the flight recorders
// (trace.Trace.Key among them) are the same too.
func TestPoisonRequestsAfterCall(t *testing.T) {
	run := func(wrap func(Transport) Transport) poisonWorkload {
		c := NewCluster(64, smallCfg(), 61)
		for _, n := range c.Nodes {
			n.tr = wrap(n.tr)
		}
		buildCluster(t, c, 0.99*4, 80000, rand.New(rand.NewSource(61)))
		storeFixture(c.Nodes)
		return runPoisonWorkload(t, c.Nodes, wrap(c.Transport), func() {})
	}
	plain := run(func(tr Transport) Transport { return tr })
	poisoned := run(func(tr Transport) Transport { return poisonTransport{tr} })
	comparePoisonWorkloads(t, plain, poisoned)
}

// TestPoisonDifferentialNodeMatchesSimulator: the node keeps step with the
// simulator meeting by meeting when every exchange request is poisoned behind
// it.
func TestPoisonDifferentialNodeMatchesSimulator(t *testing.T) {
	differentialNodeVsSimulator(t, func(tr Transport) Transport { return poisonTransport{tr} })
}

// TestPoisonDecodedRequestsAfterReply is the server's side of the rule: the
// request serveBinary decoded is free once its reply is written. Each node of
// a loopback TCP community — transplanted from a built in-process one, same
// seeds — notes the requests it decodes, and after every client operation,
// when all their replies are long written, the test poisons them. The
// community answers as the in-process one it was copied from.
func TestPoisonDecodedRequestsAfterReply(t *testing.T) {
	c := NewCluster(64, smallCfg(), 61)
	buildCluster(t, c, 0.99*4, 80000, rand.New(rand.NewSource(61)))

	ctx, cancel := context.WithCancel(context.Background())
	var (
		mu      sync.Mutex
		decoded []*wire.Message
		serving sync.WaitGroup
	)
	pt := NewPoolTransport(PoolConfig{})
	nodes := make([]*Node, len(c.Nodes))
	for i, from := range c.Nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// Building drew from the node's rng; both sides route from a fresh one.
		from.rng = rand.New(rand.NewSource(900 + int64(i)))
		n := New(from.Addr(), smallCfg(), pt, 900+int64(i))
		if err := n.Peer().Restore(from.Peer().Snapshot()); err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		srv := NewServer(n, ln)
		pt.SetEndpoint(n.Addr(), ln.Addr().String())
		srv.handle = func(m *wire.Message) *wire.Message {
			mu.Lock()
			decoded = append(decoded, m)
			mu.Unlock()
			return n.Handle(m)
		}
		serving.Add(1)
		go func() {
			defer serving.Done()
			srv.Serve(ctx)
		}()
	}
	defer func() {
		pt.Close()
		cancel() // closes every server
		serving.Wait()
	}()

	// The plain side runs second so both start from the built state, not from
	// what the other's publish left behind.
	storeFixture(nodes)
	poisoned := runPoisonWorkload(t, nodes, pt, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range decoded {
			poison(m)
		}
		decoded = decoded[:0]
	})
	storeFixture(c.Nodes)
	plain := runPoisonWorkload(t, c.Nodes, c.Transport, func() {})
	comparePoisonWorkloads(t, plain, poisoned)
}
