package node

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
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
// it, and to nobody else once the call that carried it has returned or its
// reply has been written — no layer, handler or recorder keeps a pointer into
// it, nor a string cut from it. That is what lets a client fill its one
// wire.QueryCall again for each peer its walk visits, and a server decode
// every query and visit into a wire.Room it reuses once the reply is written. The
// tests below hold the product to it by overwriting every request the moment
// the rule says it is free — a server zeroes its rooms itself — and
// demanding the same answers, and the same recorded keys, as without.

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
// an apply list, an observe, and reads with a quarter of the peers offline — where a walk
// whose first reference does not answer fills its call again for the next.
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
			tq, err := cl.Route(start, key, true)
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
		if tq, err := cl.Route(online[rng.Intn(len(online))], bitpath.Random(rng, 4), true); err == nil {
			out.Traces = append(out.Traces, tq)
			retried += tq.Backtracks
		}
		afterOp()
	}
	if retried == 0 {
		t.Fatal("no query backtracked with a quarter of the peers offline: no walk tried a second reference")
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
// seeds — answers its queries and visits in rooms its server zeroes and reuses
// once the reply is written, and notes the other requests it decodes, each in
// an object of its own; after every client operation, when all their replies
// are long written, the test poisons those. The community answers as the
// in-process one it was copied from, and its flight recorders hold the same
// routes. (A room is not the test's to poison: its server writes it next.)
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
			if m.Query == nil && m.Info == nil { // decoded into an object of its own, not a room
				mu.Lock()
				decoded = append(decoded, m)
				mu.Unlock()
			}
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
	kinds := map[wire.Kind]bool{}
	poisoned := runPoisonWorkload(t, nodes, pt, func() {
		mu.Lock()
		defer mu.Unlock()
		for _, m := range decoded {
			kinds[m.Kind] = true
			poison(m)
		}
		decoded = decoded[:0]
	})
	storeFixture(c.Nodes)
	plain := runPoisonWorkload(t, c.Nodes, c.Transport, func() {})
	comparePoisonWorkloads(t, plain, poisoned)
	if !kinds[wire.KindApply] || !kinds[wire.KindObserve] {
		t.Errorf("poisoned only %v: the apply list and the observe decode into objects of their own", kinds)
	}
}

// TestDecodedQueryHandledTwice: the room a decoded query is answered in is
// handed out once. Handled twice — as a test's wrapper or a benchmark probe
// handles a request again — the query is answered in two objects, the first
// answer reads as it did after the second is made, and both equal the answer
// to the same request built in process: the responsible peer's, carrying the
// entry the read asked for.
func TestDecodedQueryHandledTwice(t *testing.T) {
	c := NewCluster(2, smallCfg(), 1)
	if err := c.Nodes[0].Exchange(1); err != nil || c.Nodes[1].Path() != "1" {
		t.Fatalf("exchange: paths %q %q, %v", c.Nodes[0].Path(), c.Nodes[1].Path(), err)
	}
	e := store.Entry{Key: "10", Name: "f", Holder: 3, Version: 4}
	c.Nodes[1].Store().Apply(e)
	req := &wire.Message{Kind: wire.KindQuery, From: addr.Nil,
		Query: &wire.QueryReq{Key: e.Key, Read: &wire.GetReq{Key: e.Key, Name: e.Name}}}
	frame, err := wire.AppendFrame(nil, 1, 0, req)
	if err != nil {
		t.Fatal(err)
	}
	_, _, decoded, err := wire.ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[1]
	first := n.Handle(decoded)
	kept := *first
	keptResp := *first.QueryResp
	second := n.Handle(decoded)
	want := n.Handle(req)
	if first == second || first.QueryResp == second.QueryResp {
		t.Fatalf("a decoded query handled twice was answered in one object")
	}
	if *first != kept || !reflect.DeepEqual(*first.QueryResp, keptResp) {
		t.Fatalf("the first answer changed when the query was handled again: %+v, was %+v", *first.QueryResp, keptResp)
	}
	wantResp := wire.QueryResp{Found: true, Peer: 1, Path: "1", Entry: e, Has: true}
	for i, got := range []*wire.Message{first, second, want} {
		if got.Kind != wire.KindQueryResp || got.From != n.Addr() || !reflect.DeepEqual(*got.QueryResp, wantResp) {
			t.Errorf("answer %d = %+v %+v, want %+v", i, got, got.QueryResp, wantResp)
		}
	}
}

// TestServedRoomsKeepNothing: a server decodes its queries and visits into
// rooms it zeroes and reuses once the reply is written, so whatever a handler,
// a layer or a recorder keeps of a request must be its own copy. Two servers,
// responsible for the keys under 0 and under 1, serve 240 requests with
// distinct keys in turn: the two visits of a traced read for a key under 1,
// the first answered with the reference the walk goes on through, publish
// visits and scan visits. Afterwards the visits both flight recorders hold
// and the entries the store applied read as sent, and every scan answered what
// the store held.
func TestServedRoomsKeepNothing(t *testing.T) {
	pt := NewPoolTransport(PoolConfig{Size: 1})
	nodes := make([]*Node, 2)
	for i := range nodes {
		nodes[i] = New(addr.Addr(i), smallCfg(), pt, int64(i))
		nodes[i].EnableTracing(trace.NewRecorder(256), 0)
		if !nodes[i].Peer().ExtendFrom("", byte(i), addr.NewSet(addr.Addr(1-i))) {
			t.Fatal("fixture build failed")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var serving sync.WaitGroup
	for _, n := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pt.SetEndpoint(n.Addr(), ln.Addr().String())
		srv := NewServer(n, ln)
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

	var (
		routed, forwarded []bitpath.Path // the keys the read visits the first server with, and the second
		applied           []store.Entry
		rng               = rand.New(rand.NewSource(41))
	)
	for i, v := range rng.Perm(1 << 11)[:240] {
		key := bitpath.FromUint(uint64(v), 11)
		name := fmt.Sprintf("served-%d", i)
		switch i % 3 {
		case 0: // a traced read's two visits: the routed key and the read live in the room
			key = "1" + key
			e := store.Entry{Key: key, Name: name, Holder: 7, Version: uint64(i + 1)}
			nodes[1].Store().Apply(e)
			visit := func(to addr.Addr, key bitpath.Path, level int) *wire.QueryResp {
				resp, err := pt.Call(to, &wire.Message{Kind: wire.KindQuery, From: addr.Nil, Query: &wire.QueryReq{Key: key, Level: level,
					Ctx:  &trace.SpanContext{TraceID: uint64(i + 1), Parent: uint64(to), Sampled: true},
					Read: &wire.GetReq{Key: e.Key, Name: name}}})
				if err != nil || resp.QueryResp == nil {
					t.Fatalf("read %d of %s at %v: %+v, %v", i, e.Key, to, resp, err)
				}
				return resp.QueryResp
			}
			if on := visit(0, key, 0); on.Found || len(on.Refs.Addrs) != 1 || on.Refs.Addrs[0] != 1 {
				t.Fatalf("read %d of %s at the first server = %+v, want the reference to the second", i, key, on)
			}
			if got := visit(1, key, 0); !got.Has || got.Entry != e {
				t.Fatalf("read %d of %s at the second server = %+v, want %v", i, key, got, e)
			}
			routed, forwarded = append(routed, key), append(forwarded, key)
		case 1: // a publish visit: the entry's key and name live in the room
			e := store.Entry{Key: "0" + key, Name: name, Holder: addr.Addr(i), Version: uint64(i + 1)}
			resp, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil,
				Info: &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{e}}}})
			if err != nil || resp.InfoResp == nil || resp.InfoResp.Applied == nil || !resp.InfoResp.Applied.Changed {
				t.Fatalf("publish %d of %v = %+v, %v", i, e, resp, err)
			}
			applied = append(applied, e)
		case 2: // a scan visit under what was published: the scan lives in a pooled slice
			prefix := applied[len(applied)-1].Key[:1+i%6]
			want := nodes[0].Store().PrefixScan(prefix)
			resp, err := pt.Call(0, &wire.Message{Kind: wire.KindInfo, From: addr.Nil,
				Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: prefix}}})
			if err != nil || resp.InfoResp == nil || resp.InfoResp.Scanned == nil || !slices.Equal(resp.InfoResp.Scanned.Entries, want) {
				t.Fatalf("scan %d of %s = %+v, %v; the store holds %v", i, prefix, resp, err, want)
			}
		}
	}

	keys := func(rec *trace.Recorder) []bitpath.Path {
		var out []bitpath.Path
		for _, tr := range rec.Snapshot(0) {
			out = append(out, tr.Key)
		}
		slices.Reverse(out) // oldest first
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []bitpath.Path
	}{
		{"the first server's visits", keys(nodes[0].Recorder()), routed},
		{"the second server's visits", keys(nodes[1].Recorder()), forwarded},
	} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s hold %d keys, %d were sent", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s: key %d of %d reads %q, sent %q", c.what, i, len(c.got), c.got[i], c.want[i])
				break
			}
		}
	}
	for _, e := range applied {
		if got, ok := nodes[0].Store().Get(e.Key, e.Name); !ok || got != e {
			t.Errorf("published %v, the store holds %v (%v)", e, got, ok)
		}
	}
	if got := nodes[0].Store().Len(); got != len(applied) {
		t.Errorf("the store holds %d entries, %d were published", got, len(applied))
	}
}
