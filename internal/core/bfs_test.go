package core

import (
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/trie"
)

func TestReplicaSearchFindsAllOnIdealGrid(t *testing.T) {
	rng := newRng(1)
	// 32 peers, depth 2 → 8 replicas per leaf; refmax 8 means every peer
	// knows the entire sibling subtree at every level, so a BFS with
	// recbreadth 8 must enumerate the whole covering set.
	d := trie.BuildIdeal(32, 2, 8, rng)
	key := bitpath.MustParse("01")
	want := d.Covering(key)
	if len(want) != 8 {
		t.Fatalf("fixture: covering set = %d", len(want))
	}
	res := ReplicaSearch(d, d.RandomPeer(rng), key, 8, rng)
	if len(res.Found) != len(want) {
		t.Fatalf("found %d of %d replicas", len(res.Found), len(want))
	}
	for _, a := range res.Found {
		if !bitpath.Comparable(d.Peer(a).Path(), key) {
			t.Errorf("non-covering peer %v reported", a)
		}
	}
}

func TestReplicaSearchShortKeyFansOutAcrossSubtree(t *testing.T) {
	rng := newRng(2)
	d := trie.BuildIdeal(32, 3, 8, rng)
	// Key "1" covers half the grid: 4 leaves × 4 replicas = 16 peers.
	key := bitpath.MustParse("1")
	res := ReplicaSearch(d, d.RandomPeer(rng), key, 8, rng)
	want := d.Covering(key)
	if len(want) != 16 {
		t.Fatalf("fixture: covering = %d", len(want))
	}
	if len(res.Found) != 16 {
		t.Errorf("found %d of 16", len(res.Found))
	}
}

func TestReplicaSearchRecbreadthLimitsFanout(t *testing.T) {
	rng := newRng(3)
	d := trie.BuildIdeal(64, 2, 16, rng)
	key := bitpath.MustParse("10")
	res1 := ReplicaSearch(d, d.Peer(0), key, 1, rng)
	resAll := ReplicaSearch(d, d.Peer(0), key, 16, rng)
	if len(res1.Found) >= len(resAll.Found) {
		t.Errorf("recbreadth=1 found %d, recbreadth=16 found %d: breadth had no effect",
			len(res1.Found), len(resAll.Found))
	}
	if res1.Messages >= resAll.Messages {
		t.Errorf("messages %d !< %d", res1.Messages, resAll.Messages)
	}
}

func TestReplicaSearchSkipsOfflinePeers(t *testing.T) {
	rng := newRng(4)
	d := trie.BuildIdeal(16, 2, 4, rng)
	key := bitpath.MustParse("00")
	// Take half the replicas of 00 offline; they must not be reported.
	group := d.Covering(key)
	for i, a := range group {
		if i%2 == 0 {
			d.Peer(a).SetOnline(false)
		}
	}
	start := d.RandomOnlinePeer(rng)
	res := ReplicaSearch(d, start, key, 4, rng)
	for _, a := range res.Found {
		if !d.Peer(a).Online() && a != start.Addr() {
			t.Errorf("offline peer %v reported", a)
		}
	}
}

func TestReplicaSearchNilStart(t *testing.T) {
	rng := newRng(5)
	res := ReplicaSearch(nil, nil, bitpath.MustParse("0"), 2, rng)
	if len(res.Found) != 0 || res.Messages != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestReplicaSearchCountsEachContactOnce(t *testing.T) {
	rng := newRng(6)
	d := trie.BuildIdeal(16, 2, 4, rng)
	res := ReplicaSearch(d, d.Peer(0), bitpath.MustParse("11"), 4, rng)
	// Messages = contacted peers; each is distinct, and the start is free.
	seen := map[addr.Addr]bool{}
	for _, a := range res.Found {
		if seen[a] {
			t.Fatalf("duplicate replica %v", a)
		}
		seen[a] = true
	}
	if res.Messages > d.N()-1 {
		t.Errorf("messages %d exceed community size", res.Messages)
	}
}

func TestReplicaSearchStartInsideRegion(t *testing.T) {
	// Key "0" on a depth-2 grid, starting at a peer with path "01": the
	// search reaches the sibling leaf "00" through the start's level-2
	// references, and the remaining replicas of the start's own leaf
	// transitively through the sibling leaf's back-references. With
	// recbreadth = group size the whole covering set must be enumerated.
	rng := newRng(7)
	d := trie.BuildIdeal(32, 2, 8, rng)
	var start addr.Addr
	for _, p := range d.All() {
		if p.Path() == "01" {
			start = p.Addr()
			break
		}
	}
	res := ReplicaSearch(d, d.Peer(start), bitpath.MustParse("0"), 8, rng)
	if res.Found[0] != start {
		t.Fatalf("start peer not reported first: %v", res.Found)
	}
	if want := d.Covering(bitpath.MustParse("0")); len(res.Found) != len(want) {
		t.Errorf("found %d of %d covering peers", len(res.Found), len(want))
	}
}

func TestReplicaSearchExactDepthKeyFromInsideFindsOnlySelf(t *testing.T) {
	// When the key is as long as the grid is deep, the covering set is a
	// single replica group; from inside it, pure BFS finds only the start.
	rng := newRng(8)
	d := trie.BuildIdeal(32, 2, 8, rng)
	key := bitpath.MustParse("01")
	group := d.Covering(key)
	res := ReplicaSearch(d, d.Peer(group[0]), key, 8, rng)
	if len(res.Found) != 1 || res.Messages != 0 {
		t.Errorf("res = %+v, want just the start", res)
	}
}

func TestReplicaStep(t *testing.T) {
	tests := []struct {
		name      string
		path, key bitpath.Path
		covers    bool
		lo, hi    int
	}{
		{"diverging at the first bit routes through level 1", "100", "01", false, 1, 1},
		{"diverging at bit 3 routes through level 3", "0110", "010", false, 3, 3},
		{"path longer than key: covers, fans out below the key", "0110", "01", true, 3, 4},
		{"path equals key: covers, nothing to follow", "011", "011", true, 4, 3},
		{"path shorter than key: covers, nothing to follow", "01", "0110", true, 5, 2},
		{"empty key: every peer covers, all its levels followed", "101", "", true, 1, 3},
		{"empty path covers any key", "", "11", true, 3, 0},
	}
	for _, tc := range tests {
		covers, lo, hi := ReplicaStep(tc.path, tc.key)
		if covers != tc.covers || lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: ReplicaStep(%q, %q) = %v, %d…%d, want %v, %d…%d",
				tc.name, tc.path, tc.key, covers, lo, hi, tc.covers, tc.lo, tc.hi)
		}
		if covers != bitpath.Comparable(tc.path, tc.key) {
			t.Errorf("%s: covers = %v disagrees with bitpath.Comparable", tc.name, covers)
		}
	}
}
