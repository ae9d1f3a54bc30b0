package core

import (
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/trie"
)

// buildFig1 hand-builds the example grid of Fig. 1 of the paper:
//
//	addr 0 ("peer 1"): path 00, level-1 ref → 2 (peer 3), level-2 ref → 1
//	addr 1 ("peer 2"): path 01, level-1 ref → 3 (peer 4), level-2 ref → 0
//	addr 2 ("peer 3"): path 10, level-1 ref → 0 (peer 1), level-2 ref → 4
//	addr 3 ("peer 4"): path 10, level-1 ref → 1 (peer 2), level-2 ref → 5
//	addr 4 ("peer 5"): path 11, level-1 ref → 0 (peer 1), level-2 ref → 2
//	addr 5 ("peer 6"): path 11, level-1 ref → 1 (peer 2), level-2 ref → 3
func buildFig1(t *testing.T) *directory.Directory {
	t.Helper()
	d := directory.New(6)
	spec := []struct {
		path   string
		l1, l2 addr.Addr
	}{
		{"00", 2, 1},
		{"01", 3, 0},
		{"10", 0, 4},
		{"10", 1, 5},
		{"11", 0, 2},
		{"11", 1, 3},
	}
	for i, s := range spec {
		p := d.Peer(addr.Addr(i))
		path := bitpath.MustParse(s.path)
		if !p.ExtendFrom(bitpath.Empty, path.Bit(1), addr.NewSet(s.l1)) ||
			!p.ExtendFrom(path.Prefix(1), path.Bit(2), addr.NewSet(s.l2)) {
			t.Fatalf("fixture build failed at %d", i)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("fig1 fixture invalid: %v", err)
	}
	return d
}

func TestRouteStep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		path    string
		l       int
		key     string
		matched bool
		next    int
		rest    string
	}{
		// The paper's Fig. 2 narrative on the Fig. 1 grid: query 00 enters
		// at a peer with path 11, which forwards it whole through level 1;
		// the level-1 reference (path 01) has resolved one bit and forwards
		// the last through level 2; path 00 answers.
		{"fig2 entry 11 diverges at once", "11", 0, "00", false, 1, "00"},
		{"fig2 second hop 01 resolves one bit", "01", 0, "00", false, 2, "0"},
		{"fig2 responsible 00", "00", 1, "0", true, 0, ""},
		{"key exhausted inside the path", "0110", 1, "11", true, 0, ""},
		{"path a prefix of the key", "01", 0, "0111", true, 0, ""},
		{"empty path covers everything", "", 0, "101", true, 0, ""},
		{"empty key matches anywhere", "0110", 2, "", true, 0, ""},
		{"l at the path length", "01", 2, "11", true, 0, ""},
		{"l beyond the path length", "01", 5, "11", true, 0, ""},
		{"l below zero routes as from the top", "01", -1, "00", false, 2, "0"},
		{"diverging bit mid-path", "0110", 1, "101", false, 3, "01"},
		{"diverging bit at the last level", "0110", 0, "0111", false, 4, "1"},
	} {
		matched, next, rest := RouteStep(bitpath.Path(tc.path), tc.l, bitpath.Path(tc.key))
		if matched != tc.matched || next != tc.next || string(rest) != tc.rest {
			t.Errorf("%s: RouteStep(%q, %d, %q) = (%v, %d, %q), want (%v, %d, %q)",
				tc.name, tc.path, tc.l, tc.key, matched, next, rest, tc.matched, tc.next, tc.rest)
		}
	}
}

func TestQueryPaperExampleLocal(t *testing.T) {
	// "the query 00 is submitted to peer 1. As peer 1 is responsible for 00
	// it can process the complete query."
	d := buildFig1(t)
	res := Query(d, d.Peer(0), bitpath.MustParse("00"), newRng(1))
	if !res.Found || res.Peer != 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.Messages != 0 {
		t.Errorf("local answer cost %d messages", res.Messages)
	}
}

func TestQueryPaperExampleRouted(t *testing.T) {
	// Mirror of the paper's two-hop narrative ("the query is routed over
	// the responsible peers, one level at a time"): query 00 submitted to
	// addr 5 (path 11) must route via its level-1 reference (addr 1, path
	// 01), which forwards to its level-2 reference (addr 0, path 00).
	d := buildFig1(t)
	res := Query(d, d.Peer(5), bitpath.MustParse("00"), newRng(2))
	if !res.Found {
		t.Fatal("routed query failed")
	}
	if res.Peer != 0 {
		t.Errorf("query ended at %v, want addr 0", res.Peer)
	}
	if res.Messages != 2 {
		t.Errorf("messages = %d, want 2", res.Messages)
	}
}

func TestQueryOneHopWhenRefSkipsLevels(t *testing.T) {
	// Query 10 from addr 5 (path 11): the level-2 reference of addr 5
	// already points into region 10 (addr 3), so a single hop suffices.
	d := buildFig1(t)
	res := Query(d, d.Peer(5), bitpath.MustParse("10"), newRng(2))
	if !res.Found || res.Peer != 3 || res.Messages != 1 {
		t.Fatalf("res = %+v, want addr 3 in 1 message", res)
	}
}

func TestQueryAllKeysFromAllPeers(t *testing.T) {
	d := buildFig1(t)
	rng := newRng(3)
	for v := uint64(0); v < 1<<2; v++ {
		key := bitpath.FromUint(v, 2)
		for _, start := range d.All() {
			res := Query(d, start, key, rng)
			if !res.Found {
				t.Fatalf("query %s from %v failed", key, start.Addr())
			}
			if got := d.Peer(res.Peer).Path(); got != key {
				t.Errorf("query %s from %v ended at %q", key, start.Addr(), got)
			}
		}
	}
}

func TestQueryLongerKeyTerminatesAtCoveringPeer(t *testing.T) {
	// A 4-bit key on a depth-2 grid must stop at the peer whose path is a
	// prefix of the key (leaf index covers it).
	d := buildFig1(t)
	res := Query(d, d.Peer(0), bitpath.MustParse("1011"), newRng(4))
	if !res.Found {
		t.Fatal("query failed")
	}
	if got := d.Peer(res.Peer).Path(); got != "10" {
		t.Errorf("ended at %q, want 10", got)
	}
}

func TestQueryShorterKeyTerminatesInsideRegion(t *testing.T) {
	// Key "1" is shorter than the grid depth: any peer whose remaining
	// path extends it is an acceptable answer (its region is inside I(1)).
	d := buildFig1(t)
	res := Query(d, d.Peer(0), bitpath.MustParse("1"), newRng(5))
	if !res.Found {
		t.Fatal("query failed")
	}
	if got := d.Peer(res.Peer).Path(); got.Bit(1) != 1 {
		t.Errorf("ended at %q, outside region 1", got)
	}
}

func TestQueryEmptyKeyFoundImmediately(t *testing.T) {
	d := buildFig1(t)
	res := Query(d, d.Peer(2), bitpath.Empty, newRng(6))
	if !res.Found || res.Peer != 2 || res.Messages != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestQueryBacktracksAroundOfflinePeers(t *testing.T) {
	// Query 00 from addr 5 (path 11): the only fixture route is
	// 5 → 1 → 0. Knock addr 1 offline and give addr 5 an alternative
	// level-1 reference to addr 0 directly: the search must skip the
	// offline peer and succeed via the alternative.
	d := buildFig1(t)
	d.Peer(1).SetOnline(false)
	d.Peer(5).SetRefsAt(1, addr.NewSet(1, 0))
	res := Query(d, d.Peer(5), bitpath.MustParse("00"), newRng(7))
	if !res.Found || res.Peer != 0 {
		t.Fatalf("res = %+v, want success at addr 0", res)
	}
	if res.Messages != 1 {
		t.Errorf("messages = %d, want 1 (offline contacts are free)", res.Messages)
	}
}

func TestQueryFailedSearchStillCountsIntermediateHops(t *testing.T) {
	// Query 00 from addr 5 with the final peer offline: the search reaches
	// addr 1 (one successful contact) and then dead-ends.
	d := buildFig1(t)
	d.Peer(0).SetOnline(false)
	res := Query(d, d.Peer(5), bitpath.MustParse("00"), newRng(7))
	if res.Found {
		t.Fatalf("query succeeded via offline peer: %+v", res)
	}
	if res.Messages != 1 {
		t.Errorf("messages = %d, want 1 for the successful hop to addr 1", res.Messages)
	}
}

func TestQueryStopsAtWrongSideReference(t *testing.T) {
	// A corrupted table: addrs 2 and 3 (both path 10) hold each other as
	// their level-1 reference, on their own side of bit 1. A search for 0
	// from addr 2 reaches addr 3, which matches no further key bit, and
	// stops there instead of circling between the two forever.
	d := buildFig1(t)
	d.Peer(2).SetRefsAt(1, addr.NewSet(3))
	d.Peer(3).SetRefsAt(1, addr.NewSet(2))
	res := Query(d, d.Peer(2), bitpath.MustParse("0"), newRng(9))
	if res.Found || res.Messages != 1 || res.Backtracks != 1 {
		t.Fatalf("res = %+v, want not found after one message and one backtrack", res)
	}
}

func TestQueryFailsWhenRegionUnreachable(t *testing.T) {
	d := buildFig1(t)
	// All peers on side 1 offline: query for 10 from side 0 cannot succeed.
	for _, a := range []addr.Addr{2, 3, 4, 5} {
		d.Peer(a).SetOnline(false)
	}
	res := Query(d, d.Peer(0), bitpath.MustParse("10"), newRng(8))
	if res.Found {
		t.Fatalf("query succeeded via offline peers: %+v", res)
	}
	if res.Messages != 0 {
		t.Errorf("failed query counted %d messages (only successful calls count)", res.Messages)
	}
}

func TestQueryMessagesCountSuccessfulCallsOnly(t *testing.T) {
	// Same 2-hop route as the routed example, but with an extra offline
	// alternative in the first hop's reference set: contacting the offline
	// peer must not add to the message count.
	d := buildFig1(t)
	d.Peer(2).SetOnline(false)
	d.Peer(5).SetRefsAt(1, addr.NewSet(1)) // force route via addr 1
	res := Query(d, d.Peer(5), bitpath.MustParse("00"), newRng(9))
	if !res.Found || res.Messages != 2 {
		t.Fatalf("res = %+v, want 2 messages for the 2-hop route", res)
	}
}

func TestQueryOnIdealGridAlwaysSucceedsAllOnline(t *testing.T) {
	rng := newRng(10)
	d := trie.BuildIdeal(256, 4, 3, rng)
	for i := 0; i < 500; i++ {
		key := bitpath.Random(rng, 4)
		start := d.RandomPeer(rng)
		res := Query(d, start, key, rng)
		if !res.Found {
			t.Fatalf("query %s from %v failed on ideal grid", key, start.Addr())
		}
		if got := d.Peer(res.Peer).Path(); got != key {
			t.Errorf("query %s ended at %q", key, got)
		}
		if res.Messages > 4 {
			t.Errorf("query %s used %d messages, depth is 4", key, res.Messages)
		}
	}
}

func TestQueryConstructedGridEndsAtResponsiblePeer(t *testing.T) {
	// Build a real grid via exchanges, then verify every successful query
	// terminates at a peer whose path is comparable with the key.
	rng := newRng(11)
	d := directory.New(120)
	cfg := Config{MaxL: 5, RefMax: 3, RecMax: 2, RecFanout: 2}
	var m Metrics
	for i := 0; i < 20000; i++ {
		a1, a2 := d.RandomPair(rng)
		Exchange(d, cfg, &m, nil, a1, a2, rng)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		key := bitpath.Random(rng, 5)
		res := Query(d, d.RandomPeer(rng), key, rng)
		if !res.Found {
			continue // rare under partial convergence; reliability is measured elsewhere
		}
		if got := d.Peer(res.Peer).Path(); !bitpath.Comparable(got, key) {
			t.Fatalf("query %s ended at non-covering path %q", key, got)
		}
	}
}
