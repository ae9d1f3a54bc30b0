package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
)

// TestDifferentialNodeMatchesSimulator is the check behind "one kernel, two
// drivers": a 64-node LocalTransport cluster and a 64-peer directory run
// the same sequential meeting schedule, each drawing from its own copy of
// one RNG stream (every node's rng points at the shared source), and must
// agree after every meeting on all 64 paths, on the reference sets at every
// level — in order, since the order feeds later draws — and on the buddy
// sets. The drivers differ in how they get there (pair lock against
// request/response with a staleness check; case-4 recursion run after both
// sides changed against the responder's forwards running before the
// initiator has applied its side), not in where they arrive. Stores are
// left empty: meet-time replica reconciliation is simulator-only.
func TestDifferentialNodeMatchesSimulator(t *testing.T) {
	differentialNodeVsSimulator(t, func(tr Transport) Transport { return tr })
}

// differentialNodeVsSimulator runs the comparison with every node's
// transport wrapped by wrap.
func differentialNodeVsSimulator(t *testing.T, wrap func(Transport) Transport) {
	const (
		peers    = 64
		meetings = 2500
		seed     = 18
	)
	cfg := core.Config{MaxL: 6, RefMax: 3, RecMax: 2, RecFanout: 2}

	d := directory.New(peers)
	simRng := rand.New(rand.NewSource(seed))
	var m core.Metrics

	c := NewCluster(peers, cfg, 1)
	nodeRng := rand.New(rand.NewSource(seed))
	for _, n := range c.Nodes {
		n.rng = nodeRng
		n.tr = wrap(n.tr)
	}

	schedule := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < meetings; i++ {
		a := addr.Addr(schedule.Intn(peers))
		b := addr.Addr(schedule.Intn(peers - 1))
		if b >= a {
			b++
		}
		core.Exchange(d, cfg, &m, nil, d.Peer(a), d.Peer(b), simRng)
		if err := c.Nodes[a].Exchange(b); err != nil {
			t.Fatalf("meeting %d (%v, %v): %v", i, a, b, err)
		}
		for j, n := range c.Nodes {
			sim, node := d.Peer(addr.Addr(j)).Snapshot(), n.Peer().Snapshot()
			if !sameLinks(sim, node) {
				t.Fatalf("after meeting %d (%v meets %v) peer %d differs:\n simulator: %s\n node:      %s",
					i, a, b, j, showLinks(sim), showLinks(node))
			}
		}
	}

	// Every meeting, recursive ones included, is one exchange request.
	if sim, node := m.Exchanges.Load(), c.Transport.Messages(); sim != node {
		t.Errorf("simulator ran %d exchanges, the nodes served %d", sim, node)
	}
	// The schedule must have exercised the algorithm, not idled: the grid is
	// built out and recursion happened.
	if avg := d.AvgPathLen(); avg < 5 {
		t.Errorf("average path length %.2f after %d meetings: schedule too short to compare much", avg, meetings)
	}
	if m.Exchanges.Load() <= meetings {
		t.Errorf("%d exchanges for %d meetings: case 4 never recursed", m.Exchanges.Load(), meetings)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// sameLinks reports whether two snapshots agree on path, buddies and the
// references at every level, in order (the order feeds later draws).
func sameLinks(x, y peer.Snapshot) bool {
	if x.Path != y.Path || len(x.Refs) != len(y.Refs) || !slices.Equal(x.Buddies.Slice(), y.Buddies.Slice()) {
		return false
	}
	for l := range x.Refs {
		if !slices.Equal(x.Refs[l].Slice(), y.Refs[l].Slice()) {
			return false
		}
	}
	return true
}

func showLinks(s peer.Snapshot) string {
	out := fmt.Sprintf("path %q buddies %v refs", s.Path, s.Buddies.Slice())
	for _, r := range s.Refs {
		out += fmt.Sprint(" ", r.Slice())
	}
	return out
}

// TestDifferentialLookupMatchesQuery is the Fig. 2 differential: one grid,
// copied into a LocalTransport cluster and a directory, one offline set, and
// one rng stream copied to each driver. The client walks as core.Query walks
// — it draws every reference, the visited nodes none — so Lookup ends at
// core.Query's responsible peer, or at none, for core's messages plus the one
// into the community, and Route (untraced, the same draws) reports core's
// backtracks too. Rows: a transplanted 256-peer grid with half the peers
// offline, 240 keys; and the chaos soak's corrupted communities of seeds
// 1–20, where searches reach wrong-side hops and every walk stops there.
func TestDifferentialLookupMatchesQuery(t *testing.T) {
	type row struct {
		name string
		d    *directory.Directory
		c    *Cluster
		keys int
	}
	d, c := transplantedCluster(t, 51)
	setup := rand.New(rand.NewSource(52))
	for i, n := range c.Nodes {
		online := setup.Intn(2) == 0
		n.SetOnline(online)
		d.Peer(addr.Addr(i)).SetOnline(online)
	}
	rows := []row{{"transplanted grid, half offline", d, c, 240}}
	for seed := int64(1); seed <= 20; seed++ {
		c, _ := soakCorruption(t, seed)
		rows = append(rows, row{fmt.Sprintf("soak corruption, seed %d", seed), mirror(c), c, 40})
	}
	backtracks, wrongSide := 0, 0
	for ri, r := range rows {
		var online []addr.Addr
		for _, n := range r.c.Nodes {
			if n.Online() {
				online = append(online, n.Addr())
			}
		}
		draws := rand.New(rand.NewSource(int64(60 + ri)))
		for i := 0; i < r.keys; i++ {
			start, key, seed := online[draws.Intn(len(online))], bitpath.Random(draws, 1+draws.Intn(6)), draws.Int63()
			want := core.Query(r.d, r.d.Peer(start), key, rand.New(rand.NewSource(seed)))
			read := NewClient(r.c.Transport, seed).Lookup(start, key, "absent")
			route, err := NewClient(r.c.Transport, seed).Route(start, key, false)
			wantReplica := addr.Nil
			if want.Found {
				wantReplica = want.Peer
			}
			if err != nil || read.Replica != wantReplica || read.Messages != want.Messages+1 ||
				route.Found != want.Found || route.Messages != want.Messages || route.Backtracks != want.Backtracks ||
				want.Found && route.Spans[len(route.Spans)-1].Peer != want.Peer {
				t.Fatalf("%s, key %d (%s from %v): Lookup %+v, Route %+v (%v); core.Query %+v",
					r.name, i, key, start, read, route, err, want)
			}
			backtracks += want.Backtracks
			for _, s := range route.Spans[1:] {
				if !s.Matched && s.Path.Bit(s.Level+1) != key.Bit(s.Level+1) {
					wrongSide++
					break
				}
			}
		}
	}
	t.Logf("Fig. 2 differential: %d rows, %d backtracks, %d searches reached a wrong-side hop", len(rows), backtracks, wrongSide)
	if backtracks == 0 || wrongSide == 0 {
		t.Errorf("the walks never backtracked (%d) or never reached a wrong-side hop (%d)", backtracks, wrongSide)
	}
}
