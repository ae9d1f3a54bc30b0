package node

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
		var merged []store.Entry
		for _, a := range want.Found {
			merged = store.Merge(merged, d.Peer(a).Store().PrefixScan(key))
		}
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
// apply rider costs the server its decoded request (the Message with the rider,
// the apply and the entry's key and name, one object: 1), its answer (the
// Message with the InfoResp, room for the rider's answer and the LinkRoom the
// links are cut from, one object: 1) and the client its decoded answer (the
// same one object, the short path free: 1) — 3. The scan rider's
// request is the one object, its short prefix free (1); the server scans into
// a fresh slice (+1) and carries the entries back (the entry slice and its one
// arena string, +2): 6. A second conversation per replica, or an object per
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
	for _, tc := range []struct {
		name   string
		rider  *wire.InfoReq
		budget float64
	}{
		{"apply", &wire.InfoReq{Apply: &wire.ApplyReq{Entries: []store.Entry{e}}}, 3},
		{"scan", &wire.InfoReq{Scan: &wire.ScanReq{Prefix: "011"}}, 6},
	} {
		req := &wire.Message{Kind: wire.KindInfo, From: addr.Nil, Info: tc.rider}
		call := func() {
			resp, err := tr.Call(0, req)
			if err != nil || resp.InfoResp == nil || !riderAnswered(resp.InfoResp, tc.rider) {
				t.Fatalf("%s visit = %+v, %v", tc.name, resp, err)
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
