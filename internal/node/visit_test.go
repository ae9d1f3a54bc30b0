package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/raceflag"
	"pgrid/internal/sim"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// sentTransport counts every call made through it, answered or not: a BFS
// visit to an offline peer was sent and is billed.
type sentTransport struct {
	inner Transport
	sent  *atomic.Int64
}

func (t sentTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	t.sent.Add(1)
	return t.inner.Call(to, m)
}

// transplantedCluster builds a 256-peer grid of the benchmark's shape with
// the simulator, indexes entries under random 6-bit keys at every covering
// peer, and copies peers and stores into a LocalTransport cluster.
func transplantedCluster(t *testing.T, seed int64) (*directory.Directory, *Cluster) {
	t.Helper()
	cfg := core.Config{MaxL: 6, RefMax: 3, RecMax: 2, RecFanout: 2}
	built, err := sim.Build(sim.Options{N: 256, Config: cfg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	entries := make([]store.Entry, 400)
	for i := range entries {
		entries[i] = store.Entry{Key: bitpath.Random(rng, cfg.MaxL), Name: fmt.Sprintf("e%d", i),
			Holder: addr.Addr(rng.Intn(256)), Version: uint64(1 + rng.Intn(9))}
	}
	core.PopulateIndex(built.Dir, entries...)
	c := &Cluster{Transport: NewLocalTransport()}
	for _, p := range built.Dir.All() {
		n := New(p.Addr(), cfg, c.Transport, int64(p.Addr()))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		for _, e := range p.Store().Entries() {
			n.Store().Apply(e)
		}
		c.Transport.Register(n)
		c.Nodes = append(c.Nodes, n)
	}
	return built.Dir, c
}

// visitTransport counts the visits each peer is sent.
type visitTransport struct {
	inner  Transport
	visits map[addr.Addr]int
}

func (t visitTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	if m.Kind == wire.KindInfo {
		t.visits[to]++
	}
	return t.inner.Call(to, m)
}

// TestPrefixSearchPastTheRoom: a prefix search of the empty prefix reaches the
// whole 256-peer community, four times past the walk's room for the peers it
// has reached. It visits each peer once, reaches core.ReplicaSearch's peers in
// its order for its messages plus the client's, and returns the merge of their
// scans.
func TestPrefixSearchPastTheRoom(t *testing.T) {
	const recbreadth = 3
	d, c := transplantedCluster(t, 27)
	tr := visitTransport{c.Transport, map[addr.Addr]int{}}
	cl := NewClient(tr, 1)
	for _, start := range []addr.Addr{0, 77, 255} {
		clear(tr.visits)
		cl.rng = rand.New(rand.NewSource(int64(start)))
		entries, msgs := cl.PrefixSearch(start, "", recbreadth)
		want := core.ReplicaSearch(d, d.Peer(start), "", recbreadth, rand.New(rand.NewSource(int64(start))))
		if len(want.Found) <= 64 {
			t.Fatalf("from %v core reached %d peers: the walk stays in its room", start, len(want.Found))
		}
		for a, n := range tr.visits {
			if n != 1 {
				t.Errorf("from %v: peer %v visited %d times", start, a, n)
			}
		}
		var fold store.Fold
		for _, a := range want.Found {
			if tr.visits[a] != 1 {
				t.Errorf("from %v: core reached %v, the client visited it %d times", start, a, tr.visits[a])
			}
			fold.Add(d.Peer(a).Store().PrefixScan(""))
		}
		if len(tr.visits) != len(want.Found) || msgs != want.Messages+1 {
			t.Errorf("from %v: %d peers visited for %d messages, core reached %d for %d", start, len(tr.visits), msgs, len(want.Found), want.Messages)
		}
		if merged := fold.Entries(); !reflect.DeepEqual(entries, merged) {
			t.Errorf("from %v: prefix search = %d entries, core's replicas hold %d", start, len(entries), len(merged))
		}
		clear(tr.visits)
		cl.rng = rand.New(rand.NewSource(int64(start)))
		if got := cl.ReplicaSearch(start, "", recbreadth); !slices.Equal(got.Found, want.Found) {
			t.Errorf("from %v: client reached %v, core %v", start, got.Found, want.Found)
		}
	}
}

// TestDifferentialReplicaSearchMatchesSimulator: the networked BFS visits the
// peers core.ReplicaSearch visits, in its order, taking its draws, and costs
// what it charges plus the client→entry message — and with the operation
// riding on the visits, a publish and a prefix search cost that too. On a
// simulator grid copied into a cluster, 300 (start, key, seed) triples, a
// third of them 5-bit prefixes: ReplicaSearch finds core's Found in core's
// order; a prefix search returns the merge of the found peers' scans; a
// publish of two passes fed from one rng stream costs Σ(core + 1) and reaches
// |∪ Found| replicas, exactly the peers that now hold the entry. With a
// quarter of the peers offline every op bills exactly the calls it sent.
func TestDifferentialReplicaSearchMatchesSimulator(t *testing.T) {
	const recbreadth = 2
	d, c := transplantedCluster(t, 25)
	sent := new(atomic.Int64)
	cl := NewClient(sentTransport{c.Transport, sent}, 1)
	holders := func(e store.Entry) (n int) {
		for _, nd := range c.Nodes {
			if got, ok := nd.Store().Get(e.Key, e.Name); ok && got == e {
				n++
			}
		}
		return n
	}
	keyLen := func(i int) int {
		if i%3 == 0 {
			return 5
		}
		return 6
	}
	rng := rand.New(rand.NewSource(26))
	found, scanned := 0, 0
	for i := 0; i < 300; i++ {
		start := addr.Addr(rng.Intn(len(c.Nodes)))
		key := bitpath.Random(rng, keyLen(i))
		seed := rng.Int63()

		cl.rng = rand.New(rand.NewSource(seed))
		got := cl.ReplicaSearch(start, key, recbreadth)
		want := core.ReplicaSearch(d, d.Peer(start), key, recbreadth, rand.New(rand.NewSource(seed)))
		if !slices.Equal(got.Found, want.Found) || got.Messages != want.Messages+1 {
			t.Fatalf("triple %d (%v, %s, %d): client found %v for %d messages, core %v for %d",
				i, start, key, seed, got.Found, got.Messages, want.Found, want.Messages)
		}

		found += len(got.Found)

		cl.rng = rand.New(rand.NewSource(seed))
		entries, msgs := cl.PrefixSearch(start, key, recbreadth)
		var fold store.Fold
		for _, a := range want.Found {
			fold.Add(d.Peer(a).Store().PrefixScan(key))
		}
		merged := fold.Entries()
		if !reflect.DeepEqual(entries, merged) || msgs != want.Messages+1 {
			t.Fatalf("triple %d: prefix search of %s = %d entries for %d messages, core's replicas hold %d for %d",
				i, key, len(entries), msgs, len(merged), want.Messages+1)
		}
		scanned += len(entries)

		if i%10 != 0 {
			continue
		}
		e := store.Entry{Key: bitpath.Random(rng, 6), Name: fmt.Sprintf("pub%d", i), Holder: start, Version: 1}
		points := []addr.Addr{start, addr.Addr(rng.Intn(len(c.Nodes)))}
		seed = rng.Int63()
		cl.rng = rand.New(rand.NewSource(seed))
		replicas, msgs := cl.Publish(points, e, recbreadth, 2)
		coreRng, coreMsgs, union := rand.New(rand.NewSource(seed)), 0, map[addr.Addr]bool{}
		for pass := 0; pass < 2; pass++ {
			r := core.ReplicaSearch(d, d.Peer(points[pass]), e.Key, recbreadth, coreRng)
			coreMsgs += r.Messages + 1
			for _, a := range r.Found {
				union[a] = true
				d.Peer(a).Store().Apply(e)
			}
		}
		if msgs != coreMsgs || replicas != len(union) {
			t.Fatalf("publish %d: %d replicas for %d messages, core %d for %d", i, replicas, msgs, len(union), coreMsgs)
		}
		if h := holders(e); h != len(union) {
			t.Fatalf("publish %d: %d peers hold the entry, %d were found", i, h, len(union))
		}
	}

	t.Logf("300 triples: %d replicas found, %d entries scanned", found, scanned)
	if found < 600 || scanned < 1500 { // measured 1 406 and 2 625
		t.Fatalf("the triples idled: %d replicas found, %d entries scanned", found, scanned)
	}

	for _, i := range rng.Perm(len(c.Nodes))[:len(c.Nodes)/4] {
		c.Nodes[i].SetOnline(false)
	}
	for i := 0; i < 100; i++ {
		start := addr.Addr(rng.Intn(len(c.Nodes)))
		for !c.Nodes[start].Online() {
			start = addr.Addr(rng.Intn(len(c.Nodes)))
		}
		key := bitpath.Random(rng, keyLen(i))
		before := sent.Load()
		res := cl.ReplicaSearch(start, key, recbreadth)
		if s := sent.Load() - before; int64(res.Messages) != s {
			t.Fatalf("offline: ReplicaSearch bills %d messages, sent %d calls", res.Messages, s)
		}
		for _, a := range res.Found {
			if !c.Nodes[a].Online() {
				t.Fatalf("offline: ReplicaSearch found offline peer %v", a)
			}
		}
		before = sent.Load()
		_, msgs := cl.PrefixSearch(start, key, recbreadth)
		if s := sent.Load() - before; int64(msgs) != s {
			t.Fatalf("offline: PrefixSearch bills %d messages, sent %d calls", msgs, s)
		}
		e := store.Entry{Key: bitpath.Random(rng, 6), Name: fmt.Sprintf("off%d", i), Holder: start, Version: 1}
		before = sent.Load()
		replicas, msgs := cl.Publish([]addr.Addr{start}, e, recbreadth, 2)
		if s := sent.Load() - before; int64(msgs) != s {
			t.Fatalf("offline: Publish bills %d messages, sent %d calls", msgs, s)
		}
		if h := holders(e); h != replicas {
			t.Fatalf("offline: Publish reports %d replicas, %d peers hold the entry", replicas, h)
		}
	}
}

// riderCluster is FuzzHandle's four-leaf community: node i has path
// 00/01/10/11, a reference at each level, and one entry under its path.
func riderCluster(t testing.TB) *Cluster {
	c := NewCluster(4, smallCfg(), 5)
	for i, path := range []string{"00", "01", "10", "11"} {
		p := c.Nodes[i].Peer()
		key := bitpath.MustParse(path)
		if !p.ExtendFrom(key.Prefix(0), key.Bit(1), addr.NewSet(addr.Addr(i^2))) ||
			!p.ExtendFrom(key.Prefix(1), key.Bit(2), addr.NewSet(addr.Addr(i^1))) {
			t.Fatalf("fixture build failed at node %d", i)
		}
		c.Nodes[i].Store().Apply(store.Entry{Key: key + "0", Name: "own", Holder: addr.Addr(i), Version: 1})
	}
	return c
}

// TestInfoRiderServedOnlyWhenCovering: a peer performs the rider on its own
// store when the path it answers with covers the rider's key, and answers
// what it did; a peer that does not cover the key answers its links alone and
// its store is untouched. A rider naming both operations, or neither, is
// refused at the gate.
func TestInfoRiderServedOnlyWhenCovering(t *testing.T) {
	c := riderCluster(t)
	n := c.Nodes[1] // path 01
	plain := n.Handle(&wire.Message{Kind: wire.KindInfo, From: addr.Nil}).InfoResp
	if plain.Applied != nil || plain.Scanned != nil {
		t.Fatalf("plain Info answered a rider: %+v", plain)
	}
	entry := func(key string) store.Entry {
		return store.Entry{Key: bitpath.MustParse(key), Name: "new", Holder: 9, Version: 3}
	}
	apply := func(e store.Entry) *wire.InfoResp {
		return n.Handle(&wire.Message{Kind: wire.KindInfo, From: addr.Nil,
			Info: &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{e}}}}).InfoResp
	}
	scan := func(prefix string) *wire.InfoResp {
		return n.Handle(&wire.Message{Kind: wire.KindInfo, From: addr.Nil,
			Info: &wire.InfoReq{Scan: &wire.ScanReq{Prefix: bitpath.MustParse(prefix)}}}).InfoResp
	}

	before := n.Store().Entries()
	for _, key := range []string{"1", "00", "1101", "0011"} {
		if got := apply(entry(key)); got.Applied != nil || got.Scanned != nil || !reflect.DeepEqual(n.Store().Entries(), before) {
			t.Fatalf("apply rider for %s at path 01: answer %+v, store %v (was %v)", key, got, n.Store().Entries(), before)
		}
		if got := scan(key); got.Applied != nil || got.Scanned != nil {
			t.Fatalf("scan rider for %s at path 01: answer %+v", key, got)
		}
	}
	for _, key := range []string{"0110", "01"} {
		got := apply(entry(key))
		if got.Applied == nil || !got.Applied.Changed || got.Path != "01" || got.Entries != len(before)+1 {
			t.Fatalf("apply rider for %s at path 01: answer %+v", key, got)
		}
		if again := apply(entry(key)); again.Applied == nil || again.Applied.Changed {
			t.Fatalf("repeated apply rider for %s: answer %+v, want unchanged", key, again)
		}
		before = n.Store().Entries()
	}
	for _, prefix := range []string{"", "0", "01", "010", "0111"} {
		got := scan(prefix)
		if want := n.Store().PrefixScan(bitpath.MustParse(prefix)); got.Scanned == nil || !reflect.DeepEqual(got.Scanned.Entries, want) {
			t.Fatalf("scan rider for %q at path 01: answer %+v, want %v", prefix, got.Scanned, want)
		}
	}

	for _, r := range []*wire.InfoReq{{}, {Apply: &wire.ApplyReq{Entries: []store.Entry{entry("01")}}, Scan: &wire.ScanReq{Prefix: "01"}}} {
		if resp := n.Handle(&wire.Message{Kind: wire.KindInfo, From: addr.Nil, Info: r}); resp.Kind != wire.KindError {
			t.Errorf("rider %+v answered %v, want KindError", r, resp.Kind)
		}
	}
}

// riderlessTransport strips every answer to a rider, as a peer that ignored
// it would.
type riderlessTransport struct{ inner Transport }

func (t riderlessTransport) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	resp, err := t.inner.Call(to, m)
	if err == nil && resp.InfoResp != nil {
		i := *resp.InfoResp
		i.Applied, i.Scanned = nil, nil
		resp = &wire.Message{Kind: resp.Kind, From: resp.From, InfoResp: &i}
	}
	return resp, err
}

// TestReplicaSearchUnansweredRiderIsMalformed: a covering peer that answers
// without serving the rider is counted malformed and not reported found — a
// publish must not count a replica that did not apply — while the plain
// search, which asks for nothing, still finds it.
func TestReplicaSearchUnansweredRiderIsMalformed(t *testing.T) {
	c := riderCluster(t)
	tel := telemetry.New(0)
	cl := NewClient(riderlessTransport{c.Transport}, 3)
	cl.SetTelemetry(tel)
	e := store.Entry{Key: "0110", Name: "x", Holder: 1, Version: 1}
	if replicas, msgs := cl.Publish([]addr.Addr{0}, e, 2, 1); replicas != 0 || msgs == 0 {
		t.Errorf("publish through riderless peers: %d replicas for %d messages, want 0 for some", replicas, msgs)
	}
	if got := counterVal(t, tel, fmt.Sprintf("pgrid_rpc_malformed_kind_total{kind=%q}", wire.KindInfo.String())); got == 0 {
		t.Error("no malformed Info answer counted")
	}
	if res := cl.ReplicaSearch(0, e.Key, 2); !slices.Equal(res.Found, []addr.Addr{1}) {
		t.Errorf("plain search found %v, want [addr(1)]", res.Found)
	}
}

// TestAllocBudgetVisitRoundTrip: one warm BFS visit through the pooled
// transport to a loopback Server, both sides together, with each rider. The
// server decodes the request (the Message with the rider, the apply and the
// entry's key and name, or the scan and its short prefix) into a room it
// reuses, and answers in the same room (the Message with the InfoResp, room for
// the rider's answer and the LinkRoom the links are cut from): 0. The apply
// rider costs the client its decoded answer (the same one object, the short
// path free): 1. The server scans into a pooled slice its room gives back
// once the reply is written (0), and the scan's answer carries the entries back (the entry slice and its
// one arena string, +2): 3. An object per served request or visit reply, a
// scan copy per visit, a second conversation per replica, or an object per
// field, pushes either over.
func TestAllocBudgetVisitRoundTrip(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	nodes, pt, stop := startPooledCluster(t, 1, PoolConfig{Size: 1})
	defer stop()
	p := nodes[0].Peer()
	if !p.ExtendFrom("", 0, addr.NewSet(7)) || !p.ExtendFrom("0", 1, addr.NewSet(8, 9)) {
		t.Fatal("fixture build failed")
	}
	tel := telemetry.New(0)
	nodes[0].SetTelemetry(tel)
	pt.SetTelemetry(tel)
	tr := InstrumentTransport(pt, tel)
	e := store.Entry{Key: "0110", Name: "f", Holder: 3, Version: 4}
	nodes[0].Store().Apply(e)
	apply := &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{e}}}
	scan := &wire.InfoReq{Scan: &wire.ScanReq{Prefix: "011", Digested: true}}
	for _, tc := range []struct {
		name   string
		riders []*wire.InfoReq // sent in turn
		budget float64
	}{
		{"apply", []*wire.InfoReq{apply}, 1},
		{"scan", []*wire.InfoReq{scan}, 3},
		{"apply and scan", []*wire.InfoReq{apply, scan}, 4}, // an apply's room gives its pooled slice back too
	} {
		var reqs []*wire.Message
		for _, rider := range tc.riders {
			reqs = append(reqs, &wire.Message{Kind: wire.KindInfo, From: addr.Nil, Info: rider})
		}
		call := func() {
			for _, req := range reqs {
				resp, err := tr.Call(0, req)
				if err != nil || resp.InfoResp == nil || !riderAnswered(resp.InfoResp, req.Info) {
					t.Fatalf("%s visit = %+v, %v", tc.name, resp, err)
				}
			}
		}
		call() // dial, start a worker, register instruments
		if got := testing.AllocsPerRun(500, call); got > tc.budget {
			t.Errorf("warm %s visit = %.1f allocs, budget %.0f", tc.name, got, tc.budget)
		} else {
			t.Logf("warm %s visit = %.1f allocs", tc.name, got)
		}
	}
}

// TestAllocBudgetPublishWalk: a whole publish over a LocalTransport cluster of
// the benchmark's shape allocates what it sends and what it is answered — the
// rider's entry slice, one visitCall per pass and one reply per visit, the
// links riding in it — and nothing for the peers it reaches: the visited set,
// the queue, each level's shuffled references and the distinct replicas stay
// in the walk's frame. Twenty publishes of entries the replicas already hold,
// two passes each, replayed from one seed.
func TestAllocBudgetPublishWalk(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	_, c := transplantedCluster(t, 25)
	cl := NewClient(c.Transport, 1)
	rng := rand.New(rand.NewSource(3))
	type publish struct {
		entries []addr.Addr
		e       store.Entry
	}
	var ops []publish
	for i := 0; i < 20; i++ {
		ops = append(ops, publish{[]addr.Addr{addr.Addr(rng.Intn(256)), addr.Addr(rng.Intn(256))},
			store.Entry{Key: bitpath.Random(rng, 6), Name: fmt.Sprintf("w%d", i), Holder: 1, Version: 1}})
	}
	msgs, replicas := 0, 0
	run := func() {
		cl.rng.Seed(1)
		msgs, replicas = 0, 0
		for _, o := range ops {
			r, m := cl.Publish(o.entries, o.e, 2, 2)
			msgs, replicas = msgs+m, replicas+r
		}
	}
	run() // installs the entries: later passes change nothing
	got := testing.AllocsPerRun(20, run)
	if budget := float64(msgs + 3*len(ops)); got > budget || replicas < len(ops) {
		t.Errorf("20 publishes = %.0f allocs for %d visits and %d replicas, budget %.0f", got, msgs, replicas, budget)
	} else {
		t.Logf("20 publishes = %.0f allocs for %d visits and %d replicas", got, msgs, replicas)
	}
}

// replicaGroup starts five pooled loopback Servers: node 0 (path 1) leads to
// four replicas of path 0, three holding the same index and the fourth one
// entry more. A prefix search of 0 from node 0 visits all five and returns 7
// entries.
func replicaGroup(t *testing.T) (*PoolTransport, func()) {
	t.Helper()
	nodes, pt, stop := startPooledCluster(t, 5, PoolConfig{Size: 1})
	if !nodes[0].Peer().ExtendFrom("", 1, addr.NewSet(1, 2, 3, 4)) {
		t.Fatal("fixture build failed at node 0")
	}
	for i, n := range nodes[1:] {
		if !n.Peer().ExtendFrom("", 0, addr.NewSet(0)) {
			t.Fatalf("fixture build failed at node %d", i+1)
		}
		for j := 0; j < 6; j++ {
			n.Store().Apply(store.Entry{Key: bitpath.MustParse(fmt.Sprintf("0%03b", j)), Name: fmt.Sprintf("e%d", j), Holder: 5, Version: 2})
		}
	}
	nodes[4].Store().Apply(store.Entry{Key: "0111", Name: "extra", Holder: 6, Version: 1})
	return pt, stop
}

// TestAllocBudgetPrefixSearch: a prefix search over a replica group through the
// pooled transport allocates one list per distinct content, not one per
// covering replica. Over replicaGroup's four replicas of two contents, each
// visit costs the client its decoded answer (1), the search its visitCall and
// the merge of the two distinct lists (2), and each distinct list its entry
// slice and arena (2): a replica whose range the search already holds answers
// "same", which decodes into the answer alone. A list decoded per covering
// replica pushes it over.
func TestAllocBudgetPrefixSearch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates")
	}
	pt, stop := replicaGroup(t)
	defer stop()
	const visits, distinct = 5, 2
	cl := NewClient(pt, 1)
	search := func() {
		entries, msgs := cl.PrefixSearch(0, "0", 4)
		if len(entries) != 7 || msgs != visits {
			t.Fatalf("prefix search = %d entries for %d messages, want 7 for %d", len(entries), msgs, visits)
		}
	}
	search() // dial, start the workers
	got := testing.AllocsPerRun(200, search)
	if budget := float64(visits + 2 + 2*distinct); got > budget {
		t.Errorf("prefix search over %d replicas of %d contents = %.1f allocs, budget %.0f", visits-1, distinct, got, budget)
	} else {
		t.Logf("prefix search over %d replicas of %d contents = %.1f allocs", visits-1, distinct, got)
	}
}

// TestPrefixSearchConcurrentPooled: four clients search replicaGroup at once,
// so the servers decode digested scans into rooms and answer "same" from them
// on several workers together; every search returns the seven entries for
// five messages. Run under -race.
func TestPrefixSearchConcurrentPooled(t *testing.T) {
	pt, stop := replicaGroup(t)
	defer stop()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl := NewClient(pt, seed)
			for i := 0; i < 50; i++ {
				if entries, msgs := cl.PrefixSearch(0, "0", 4); len(entries) != 7 || msgs != 5 {
					t.Errorf("client %d, search %d: %d entries for %d messages, want 7 for 5", seed, i, len(entries), msgs)
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
}

// scanCounter counts the scan answers a search is sent: lists that carry
// entries, and "same" answers.
type scanCounter struct {
	inner       Transport
	lists, same *int
}

func (t scanCounter) Call(to addr.Addr, m *wire.Message) (*wire.Message, error) {
	resp, err := t.inner.Call(to, m)
	if err == nil && resp.InfoResp != nil && resp.InfoResp.Scanned != nil {
		switch s := resp.InfoResp.Scanned; {
		case s.Same:
			*t.same++
		case len(s.Entries) > 0:
			*t.lists++
		}
	}
	return resp, err
}

// TestPrefixSearchDivergentReplicas: on a simulator grid copied into a
// cluster, one replica of a leaf holds an older version of an entry, another
// an entry the rest lack, and two more are stale crosswise — one holds A at
// version 2 and B at 1, the other the reverse, with names picked so that the
// unmixed sums of their entry terms collide — so the leaf's replicas hold five
// contents. A prefix search under that leaf returns exactly the fold of every
// covering peer's scan — the fresher versions and the extra entry included —
// for core.ReplicaSearch's messages plus the client's, and is sent one list
// per distinct range digest among the peers it covers: every other covering
// replica answers "same".
func TestPrefixSearchDivergentReplicas(t *testing.T) {
	const recbreadth = 2
	d, c := transplantedCluster(t, 31)
	groups := map[bitpath.Path][]*Node{}
	for _, n := range c.Nodes {
		groups[n.Path()] = append(groups[n.Path()], n)
	}
	var leaf bitpath.Path
	for path, g := range groups {
		if len(g) >= 4 && (leaf == "" || path < leaf) {
			leaf = path
		}
	}
	if leaf == "" {
		t.Fatal("no leaf with four replicas")
	}
	g := groups[leaf]
	var fresh store.Entry
	for _, e := range g[0].Store().Entries() {
		if e.Version >= 2 {
			fresh = e
			break
		}
	}
	if fresh.Version < 2 {
		t.Fatalf("leaf %s holds no entry past version 1", leaf)
	}
	stale := fresh
	stale.Version--
	g[0].Store().Delete(fresh.Key, fresh.Name)
	g[0].Store().Apply(stale)
	extra := store.Entry{Key: leaf, Name: "extra", Holder: 7, Version: 1}
	g[1].Store().Apply(extra)
	crossA, crossB := crosswisePair(t, leaf)
	crossA.Version, crossB.Version = 2, 1
	g[2].Store().Apply(crossA)
	g[2].Store().Apply(crossB)
	crossA.Version, crossB.Version = 1, 2
	g[3].Store().Apply(crossA)
	g[3].Store().Apply(crossB)
	crossA.Version = 2

	lists, same := 0, 0
	cl := NewClient(scanCounter{c.Transport, &lists, &same}, 1)
	rng := rand.New(rand.NewSource(32))
	sawDivergence, sawCrosswise, totalSame := 0, 0, 0
	for i := 0; i < 120; i++ {
		prefix := leaf.Prefix(4 + i%3)
		start := addr.Addr(rng.Intn(len(c.Nodes)))
		seed := rng.Int63()
		lists, same = 0, 0
		cl.rng = rand.New(rand.NewSource(seed))
		entries, msgs := cl.PrefixSearch(start, prefix, recbreadth)
		want := core.ReplicaSearch(d, d.Peer(start), prefix, recbreadth, rand.New(rand.NewSource(seed)))
		var fold store.Fold
		digests := map[uint64]bool{}
		for _, a := range want.Found {
			s := c.Nodes[a].Store()
			fold.Add(s.PrefixScan(prefix))
			if s.PrefixScan(prefix) != nil {
				digests[s.PrefixDigest(prefix)] = true
			}
		}
		if merged := fold.Entries(); !reflect.DeepEqual(entries, merged) || msgs != want.Messages+1 {
			t.Fatalf("search %d (%v, %s): %d entries for %d messages, the covering peers' fold holds %d for %d",
				i, start, prefix, len(entries), msgs, len(merged), want.Messages+1)
		}
		if lists != len(digests) {
			t.Fatalf("search %d (%v, %s): sent %d lists for %d distinct range digests", i, start, prefix, lists, len(digests))
		}
		if slices.Contains(entries, extra) && slices.Contains(entries, fresh) && slices.Contains(want.Found, g[0].Addr()) {
			sawDivergence++
		}
		if slices.Contains(entries, crossA) && slices.Contains(entries, crossB) &&
			slices.Contains(want.Found, g[2].Addr()) && slices.Contains(want.Found, g[3].Addr()) {
			sawCrosswise++
		}
		totalSame += same
	}
	t.Logf("120 searches: %d reached the stale replica and returned the fresh version and the extra entry, %d reached both crosswise replicas and returned both fresh versions, %d replicas answered \"same\"",
		sawDivergence, sawCrosswise, totalSame)
	if sawDivergence == 0 || sawCrosswise == 0 || totalSame == 0 {
		t.Fatalf("the searches idled: %d reached the divergent leaf, %d both crosswise replicas, %d same answers", sawDivergence, sawCrosswise, totalSame)
	}
}

// crosswisePair returns two entries under key, at version 2, such that a
// store holding A@2 and B@1 and one holding A@1 and B@2 have the same
// Summary.Hash, an unmixed sum of entry terms: the replicas a range digest
// summing raw terms would call equal.
func crosswisePair(t *testing.T, key bitpath.Path) (a, b store.Entry) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		a = store.Entry{Key: key, Name: fmt.Sprintf("cross-a%d", i), Holder: addr.Addr(1 + i%3)}
		b = store.Entry{Key: key, Name: fmt.Sprintf("cross-b%d", i), Holder: addr.Addr(1 + i%5)}
		x, y := store.New(), store.New()
		a.Version, b.Version = 2, 1
		x.Apply(a)
		x.Apply(b)
		a.Version, b.Version = 1, 2
		y.Apply(a)
		y.Apply(b)
		if x.Summary() == y.Summary() {
			a.Version = 2
			return a, b
		}
	}
	t.Fatal("no crosswise pair whose unmixed sums collide")
	return
}
