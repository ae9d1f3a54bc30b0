package node

import (
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/central"
	"pgrid/internal/core"
	"pgrid/internal/sim"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// wireHealthFixture hand-builds the 3-node grid the walk tests share —
// 0→"0", 1→"10", 2→"11", with the Section 2 references between them — on
// the given nodes, whatever transport they sit on.
func wireHealthFixture(t *testing.T, nodes []*Node) {
	t.Helper()
	spec := []struct {
		path string
		refs []addr.Addr
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
				t.Fatalf("fixture build failed at node %d level %d", i, level)
			}
		}
	}
}

// localHealthCluster is wireHealthFixture over the in-process transport.
func localHealthCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(3, smallCfg(), 7)
	wireHealthFixture(t, c.Nodes)
	return c
}

func TestProberTick(t *testing.T) {
	c := localHealthCluster(t)
	n1 := c.Nodes[1] // path 10: level-1 ref → 0, level-2 ref → 2
	tel := telemetry.New(1)
	n1.SetTelemetry(tel)
	pr := NewProber(n1, 8, 1)

	pr.Tick()
	probes := n1.HealthTracker().Snapshot()
	if len(probes) != 2 {
		t.Fatalf("probes = %+v, want both levels sampled", probes)
	}
	for _, lp := range probes {
		if lp.Dead != 0 || lp.Live != 1 {
			t.Errorf("level %d = %+v, want 1 live / 0 dead", lp.Level, lp)
		}
	}
	gauges := map[string]int64{}
	for _, s := range tel.Registry().Snapshot() {
		gauges[s.Name] = s.Value
	}
	if gauges["pgrid_health_probe_rounds"] != 1 {
		t.Errorf("rounds gauge = %d, want 1", gauges["pgrid_health_probe_rounds"])
	}
	if gauges["pgrid_health_liveness_permille"] != 1000 {
		t.Errorf("liveness gauge = %d, want 1000", gauges["pgrid_health_liveness_permille"])
	}
	if gauges["pgrid_health_path_len"] != 2 {
		t.Errorf("path gauge = %d, want 2", gauges["pgrid_health_path_len"])
	}

	c.Nodes[2].SetOnline(false)
	pr.Tick()
	var l2 bool
	for _, lp := range n1.HealthTracker().Snapshot() {
		if lp.Level == 2 {
			l2 = true
			if lp.Live != 1 || lp.Dead != 1 {
				t.Errorf("level 2 after outage = %+v, want 1 live / 1 dead", lp)
			}
		}
	}
	if !l2 || n1.HealthTracker().Rounds() != 2 {
		t.Errorf("tracker after 2 rounds: %+v, rounds=%d", n1.HealthTracker().Snapshot(), n1.HealthTracker().Rounds())
	}
}

// TestProberBudget pins the budget bound and the level interleaving: with
// budget 1, each round spends exactly one probe, on level 1 first.
func TestProberBudget(t *testing.T) {
	c := localHealthCluster(t)
	pr := NewProber(c.Nodes[1], 1, 1)
	pr.Tick()
	probes := c.Nodes[1].HealthTracker().Snapshot()
	if len(probes) != 1 || probes[0].Level != 1 || probes[0].Live+probes[0].Dead != 1 {
		t.Fatalf("budget-1 round probed %+v, want exactly one level-1 probe", probes)
	}
}

// TestProberSkipsOffline: an offline node measures nothing (it is not a
// community participant while away).
func TestProberSkipsOffline(t *testing.T) {
	c := localHealthCluster(t)
	pr := NewProber(c.Nodes[1], 8, 1)
	c.Nodes[1].SetOnline(false)
	pr.Tick()
	if got := c.Nodes[1].HealthTracker().Rounds(); got != 0 {
		t.Fatalf("offline node completed %d rounds", got)
	}
}

func TestFetchHealth(t *testing.T) {
	c := localHealthCluster(t)
	NewProber(c.Nodes[1], 8, 1).Tick()

	cl := NewClient(c.Transport, 42)
	h := observe(t, cl, 1, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness}).Health
	d, rounds := h.Digest, h.Rounds
	if d.Addr != 1 || d.Path != bitpath.MustParse("10") || rounds != 1 {
		t.Fatalf("digest = %+v rounds = %d", d, rounds)
	}
	if len(d.RefCounts) != 2 || d.RefCounts[0] != 1 || d.RefCounts[1] != 1 {
		t.Errorf("ref counts = %v, want [1 1]", d.RefCounts)
	}
	if len(d.Liveness) != 2 {
		t.Errorf("liveness = %+v, want both levels", d.Liveness)
	}

	// Without AskLiveness the digest stays minimal.
	d2 := observe(t, cl, 1, wire.ObserveReq{Asks: wire.AskHealth}).Health.Digest
	if d2.Liveness != nil {
		t.Errorf("minimal digest carries liveness: %+v", d2.Liveness)
	}
}

// crawl is the walk `pgridctl crawl` makes.
func crawl(cl *Client, start addr.Addr) WalkResult {
	return cl.Walk(start, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness | wire.AskRepair})
}

func TestCrawlCensus(t *testing.T) {
	c := localHealthCluster(t)
	cl := NewClient(c.Transport, 42)

	res := crawl(cl, 0)
	if len(res.Digests) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("crawl = %+v", res)
	}
	want := map[addr.Addr]string{0: "0", 1: "10", 2: "11"}
	for _, d := range res.Digests {
		if d.Path.String() != want[d.Addr] {
			t.Errorf("census: %v has path %s, want %s", d.Addr, d.Path, want[d.Addr])
		}
	}
	// One message per reachable peer: links, health and repair ride one observe.
	if res.Messages != 3 {
		t.Errorf("messages = %d, want 3", res.Messages)
	}

	// An offline peer is reported unreachable, not silently dropped.
	c.Nodes[2].SetOnline(false)
	res = crawl(cl, 0)
	if len(res.Digests) != 2 || len(res.Unreachable) != 1 || res.Unreachable[0] != 2 {
		t.Fatalf("crawl with 2 offline = %+v", res)
	}
}

// TestTCPCrawl is the acceptance test: a crawl over a real 3-node TCP
// community returns a census matching the peers' actual responsibility
// paths.
func TestTCPCrawl(t *testing.T) {
	nodes, _, stop := startPooledCluster(t, 3, PoolConfig{})
	defer stop()
	wireHealthFixture(t, nodes)
	for i, n := range nodes {
		NewProber(n, 4, int64(i)).Tick()
	}

	res := crawl(NewClient(nodes[0].tr, 42), 0)
	digests := res.Digests
	if len(digests) != 3 || len(res.Unreachable) != 0 {
		t.Fatalf("TCP crawl = %+v", res)
	}
	for i, want := range []string{"0", "10", "11"} {
		d := digests[i]
		if d.Addr != addr.Addr(i) || d.Path.String() != want {
			t.Errorf("digest %d = %v %s, want %d %s", i, d.Addr, d.Path, i, want)
		}
		if len(d.Liveness) == 0 {
			t.Errorf("digest %d carries no probe data: %+v", i, d)
		}
	}
}

// TestCrawlGroundTruth64 builds a 64-peer community with the simulator,
// transplants every peer's state into a networked node, and checks that
// the decentralized crawl reconstructs exactly the census a central
// registry (told every path directly) holds.
func TestCrawlGroundTruth64(t *testing.T) {
	cfg := core.Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
	built, err := sim.Build(sim.Options{N: 64, Config: cfg, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !built.Converged {
		t.Fatal("construction did not converge")
	}

	tr := NewLocalTransport()
	reg := central.NewRegistry()
	for _, p := range built.Dir.All() {
		n := New(p.Addr(), cfg, tr, int64(p.Addr()))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			t.Fatal(err)
		}
		tr.Register(n)
		reg.Record(p.Addr(), p.Path())
	}

	res := crawl(NewClient(tr, 3), 0)
	if len(res.Unreachable) != 0 {
		t.Fatalf("unreachable peers in a fully-online community: %v", res.Unreachable)
	}
	crawled := make(map[bitpath.Path][]addr.Addr)
	for _, d := range res.Digests {
		crawled[d.Path] = append(crawled[d.Path], d.Addr) // already addr-sorted
	}

	truth := reg.Census()
	if len(crawled) != len(truth) {
		t.Fatalf("crawled %d paths, registry has %d", len(crawled), len(truth))
	}
	for path, wantAddrs := range truth {
		gotAddrs := crawled[path]
		if len(gotAddrs) != len(wantAddrs) {
			t.Fatalf("path %s: crawled %v, registry %v", path, gotAddrs, wantAddrs)
		}
		for i := range wantAddrs {
			if gotAddrs[i] != wantAddrs[i] {
				t.Fatalf("path %s: crawled %v, registry %v", path, gotAddrs, wantAddrs)
			}
		}
	}
	if len(res.Digests) != 64 {
		t.Fatalf("crawl found %d peers, want 64", len(res.Digests))
	}
}
