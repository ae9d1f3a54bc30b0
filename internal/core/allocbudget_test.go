package core

import (
	"fmt"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/peer"
	"pgrid/internal/raceflag"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// fullGrid builds 256 peers to depth 4 and keeps them meeting until every
// reference set holds RefMax addresses, then completes the buddy lists (a
// replica meeting's only growth), so that nothing a further meeting installs
// is larger than what it replaces.
func fullGrid(t *testing.T, cfg Config) *directory.Directory {
	t.Helper()
	d := directory.New(256)
	rng := newRng(1)
	var m Metrics
	sc := NewExchangeScratch(cfg, 256)
	for i := 0; i < 40000; i++ {
		a1, a2 := d.RandomPair(rng)
		Exchange(d, cfg, &m, sc, a1, a2, rng)
	}
	for _, p := range d.All() {
		s := p.Snapshot()
		if s.Path.Len() != cfg.MaxL {
			t.Fatalf("peer %v stopped at path %q", s.Addr, s.Path)
		}
		for i, refs := range s.Refs {
			if refs.Len() != cfg.RefMax {
				t.Fatalf("peer %v holds %d references at level %d, want %d", s.Addr, refs.Len(), i+1, cfg.RefMax)
			}
		}
	}
	for _, group := range d.ReplicaGroups() {
		for _, a := range group {
			for _, b := range group {
				d.Peer(a).AddBuddy(b)
			}
		}
	}
	return d
}

// TestAllocBudgetExchange: on a converged grid with full reference sets, a
// top-level meeting decided in a reused scratch allocates nothing — whether
// it only mixes the common level, recurses through case 4, or is a meeting
// of replicas with nothing to reconcile.
func TestAllocBudgetExchange(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	cfg := Config{MaxL: 4, RefMax: 4, RecMax: 2, RecFanout: 2}
	d := fullGrid(t, cfg)
	groups := d.ReplicaGroups()
	left, right := groups[bitpath.MustParse("0110")], groups[bitpath.MustParse("0111")]
	if len(left) < 2 || len(right) < 1 {
		t.Fatalf("replica groups of 0110 and 0111: %v, %v", left, right)
	}
	sibling1, sibling2, replica := d.Peer(left[0]), d.Peer(right[0]), d.Peer(left[1])

	noRecursion := cfg
	noRecursion.RecMax = 0
	rng := newRng(2)
	sc := NewExchangeScratch(cfg, 256)
	for _, tc := range []struct {
		name      string
		cfg       Config
		other     addr.Addr
		wantCase  int
		exchanges int64 // per meeting: 1, or more when case 4 recursed
	}{
		{"common-level mix", noRecursion, sibling2.Addr(), telemetry.ExCaseNone, 1},
		{"case 4 with recursion", cfg, sibling2.Addr(), telemetry.ExCase4, 2},
		{"replicas, empty stores", cfg, replica.Addr(), telemetry.ExCaseReplica, 1},
	} {
		other := d.Peer(tc.other)
		peer.EditPair(sibling1, other, func(e1, e2 peer.Editor) { // a dry decision: nothing applied
			if dec := DecideExchange(e1, e2, tc.cfg, 0, true, newRng(9), NewExchangeScratch(tc.cfg, 0)); dec.Case != tc.wantCase {
				t.Fatalf("%s: the pair meets as case %d, want %d", tc.name, dec.Case, tc.wantCase)
			}
		})
		var m Metrics
		const runs = 200
		allocs := testing.AllocsPerRun(runs, func() {
			Exchange(d, tc.cfg, &m, sc, sibling1, other, rng)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per meeting, want 0", tc.name, allocs)
		}
		if got := m.Exchanges.Load(); got < tc.exchanges*(runs+1) {
			t.Errorf("%s: %d exchanges over %d meetings, want at least %d each", tc.name, got, runs+1, tc.exchanges)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestAllocBudgetPopulateIndex: seeding a catalog allocates for the one
// grouping of the community by path, and for what the stores grow by —
// nothing per entry, nothing per peer looked at. Re-seeding entries the
// stores already hold leaves the grouping alone: the same allocations for a
// hundred entries as for two hundred, and none for a single entry, which
// scans.
func TestAllocBudgetPopulateIndex(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	cfg := Config{MaxL: 4, RefMax: 4, RecMax: 2, RecFanout: 2}
	d := fullGrid(t, cfg)
	rng := newRng(3)
	entries := make([]store.Entry, 200)
	for i := range entries {
		entries[i] = store.Entry{Key: bitpath.Random(rng, 6), Name: fmt.Sprintf("f%d", i), Holder: 1, Version: 1}
	}
	if n := PopulateIndex(d, entries...); n < len(entries) {
		t.Fatalf("seeded %d copies of %d entries", n, len(entries))
	}
	one := testing.AllocsPerRun(10, func() { PopulateIndex(d, entries[:1]...) })
	half := testing.AllocsPerRun(10, func() { PopulateIndex(d, entries[:100]...) })
	all := testing.AllocsPerRun(10, func() { PopulateIndex(d, entries...) })
	if one != 0 || half != all {
		t.Errorf("re-seeding 1, 100, 200 entries allocates %v, %v, %v times: want 0, then the same", one, half, all)
	}
	// 16 paths, some 16 peers on each: a map, and up to six doublings a group.
	if budget := float64(16*6 + 8); all > budget {
		t.Errorf("grouping 256 peers allocates %v times, budget %v", all, budget)
	}
}

// TestAllocBudgetRead: the reads the simulator drives work in their caller's
// frame — a Fig. 2 search, a read, a breadth-first update and a majority
// read allocate nothing, with everyone online and with half the community
// offline, where searches backtrack. A traced search allocates its spans
// and nothing else.
func TestAllocBudgetRead(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	cfg := Config{MaxL: 4, RefMax: 4, RecMax: 2, RecFanout: 2}
	d := fullGrid(t, cfg)
	rng := newRng(4)
	// Keys longer than the paths, as in the Sec. 5.2 experiment: a key is
	// covered by one replica group, and every covering peer holds its entry,
	// so an update overwrites a version in place.
	entries := make([]store.Entry, 32)
	for i := range entries {
		entries[i] = store.Entry{Key: bitpath.Random(rng, 6), Name: fmt.Sprintf("f%d", i), Holder: 1, Version: 1}
	}
	PopulateIndex(d, entries...)

	for _, offline := range []bool{false, true} {
		if offline {
			for i, p := range d.All() {
				p.SetOnline(i%2 == 0)
			}
		}
		i, version, backtracks := 0, uint64(1), 0
		next := func() store.Entry {
			i++
			return entries[i%len(entries)]
		}
		for _, tc := range []struct {
			name string
			op   func()
		}{
			{"Query", func() { backtracks += Query(d, d.RandomOnlinePeer(rng), next().Key, rng).Backtracks }},
			{"ReadOnce", func() { e := next(); ReadOnce(d, d.RandomOnlinePeer(rng), e.Key, e.Name, rng) }},
			{"Update", func() {
				e := next()
				version++
				e.Version = version
				Update(d, e, 2, 2, rng)
			}},
			{"MajorityRead", func() { e := next(); MajorityRead(d, e.Key, e.Name, MajorityOptions{}, rng) }},
		} {
			if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
				t.Errorf("offline=%v: %s allocates %v times, want 0", offline, tc.name, allocs)
			}
		}
		if offline && backtracks == 0 {
			t.Error("no search backtracked with half the community offline")
		}

		start, key := d.RandomOnlinePeer(rng), entries[0].Key
		for bitpath.Comparable(start.Path(), key) { // a route of more than one hop
			start = d.RandomOnlinePeer(rng)
		}
		rng.Seed(5)
		spans := len(QueryTraced(d, start, key, rng).Spans)
		growths := 0 // the allocations of appending that many spans one by one
		for s := []trace.Span(nil); len(s) < spans; s = append(s, trace.Span{}) {
			if len(s) == cap(s) {
				growths++
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			rng.Seed(5)
			QueryTraced(d, start, key, rng)
		})
		if allocs > float64(growths) {
			t.Errorf("offline=%v: QueryTraced allocates %v times for %d spans, want at most %d", offline, allocs, spans, growths)
		}
	}
}
