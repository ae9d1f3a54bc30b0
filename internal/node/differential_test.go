package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pgrid/internal/addr"
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

	same := func(x, y peer.Snapshot) bool {
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
	show := func(s peer.Snapshot) string {
		out := fmt.Sprintf("path %q buddies %v refs", s.Path, s.Buddies.Slice())
		for _, r := range s.Refs {
			out += fmt.Sprint(" ", r.Slice())
		}
		return out
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
			if !same(sim, node) {
				t.Fatalf("after meeting %d (%v meets %v) peer %d differs:\n simulator: %s\n node:      %s",
					i, a, b, j, show(sim), show(node))
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
