package core

import (
	"fmt"
	"sort"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/store"
	"pgrid/internal/trie"
)

func TestFindRoundStrategies(t *testing.T) {
	rng := newRng(1)
	d := trie.BuildIdeal(64, 3, 8, rng)
	key := bitpath.MustParse("101")

	for _, s := range []Strategy{RepeatedDFS, RepeatedDFSBuddies, BreadthFirst} {
		acc, msgs := FindRound(d, s, key, 3, nil, rng)
		if len(acc) == 0 {
			t.Errorf("%v: found nothing", s)
		}
		if msgs < 0 {
			t.Errorf("%v: negative messages", s)
		}
		for _, a := range acc {
			if !bitpath.Comparable(d.Peer(a).Path(), key) {
				t.Errorf("%v: non-covering peer %v", s, a)
			}
		}
	}
}

func TestFindRoundDFSFindsAtMostOne(t *testing.T) {
	rng := newRng(2)
	d := trie.BuildIdeal(64, 3, 8, rng)
	acc, _ := FindRound(d, RepeatedDFS, bitpath.MustParse("000"), 0, nil, rng)
	if len(acc) > 1 {
		t.Errorf("plain DFS found %d replicas in one round", len(acc))
	}
}

func TestFindRoundBuddiesExpandCoverage(t *testing.T) {
	// On the ideal grid buddies are fully populated, so one DFS+buddies
	// round must find the entire replica group of an exact-depth key.
	rng := newRng(3)
	d := trie.BuildIdeal(64, 3, 8, rng)
	key := bitpath.MustParse("110")
	group := d.Covering(key)
	acc, _ := FindRound(d, RepeatedDFSBuddies, key, 0, nil, rng)
	if len(acc) != len(group) {
		t.Errorf("found %d of %d with buddies", len(acc), len(group))
	}
}

func TestFindRoundBuddySkipsOffline(t *testing.T) {
	rng := newRng(4)
	d := trie.BuildIdeal(16, 1, 8, rng)
	key := bitpath.MustParse("1")
	group := d.Covering(key)
	for i, a := range group {
		if i >= len(group)/2 {
			d.Peer(a).SetOnline(false)
		}
	}
	acc, _ := FindRound(d, RepeatedDFSBuddies, key, 0, nil, rng)
	for _, a := range acc {
		if !d.Peer(a).Online() {
			t.Errorf("offline buddy %v updated", a)
		}
	}
}

func TestFindRoundNoOnlinePeers(t *testing.T) {
	rng := newRng(5)
	d := trie.BuildIdeal(8, 1, 4, rng)
	d.SetAllOnline(false)
	if acc, msgs := FindRound(d, BreadthFirst, bitpath.MustParse("0"), 2, nil, rng); msgs != 0 || len(acc) != 0 {
		t.Errorf("msgs=%d acc=%v with everyone offline", msgs, acc)
	}
}

func TestUpdatePropagatesVersion(t *testing.T) {
	rng := newRng(6)
	d := trie.BuildIdeal(64, 3, 8, rng)
	key := bitpath.MustParse("01") // shorter than depth → BFS can fan out
	entry := store.Entry{Key: key, Name: "doc", Holder: 1, Version: 7}
	res := Update(d, entry, 8, 3, rng)
	if res.Replicas == 0 {
		t.Fatal("update reached no replicas")
	}
	fresh := 0
	for _, a := range d.Covering(key) {
		if e, ok := d.Peer(a).Store().Get(key, "doc"); ok && e.Version == 7 {
			fresh++
		}
	}
	if fresh != res.Replicas {
		t.Errorf("reported %d replicas, %d actually fresh", res.Replicas, fresh)
	}
	if fresh < len(d.Covering(key))/2 {
		t.Errorf("update reached only %d of %d covering peers", fresh, len(d.Covering(key)))
	}
}

func TestUpdateDoesNotRegressVersions(t *testing.T) {
	rng := newRng(7)
	d := trie.BuildIdeal(16, 2, 4, rng)
	key := bitpath.MustParse("0")
	PopulateIndex(d, store.Entry{Key: key, Name: "x", Holder: 1, Version: 10})
	Update(d, store.Entry{Key: key, Name: "x", Holder: 2, Version: 3}, 4, 2, rng)
	for _, a := range d.Covering(key) {
		if e, ok := d.Peer(a).Store().Get(key, "x"); ok && e.Version != 10 {
			t.Fatalf("stale update regressed peer %v to version %d", a, e.Version)
		}
	}
}

func TestReadOnceReturnsStoredEntry(t *testing.T) {
	rng := newRng(8)
	d := trie.BuildIdeal(16, 2, 4, rng)
	key := bitpath.MustParse("11")
	PopulateIndex(d, store.Entry{Key: key, Name: "f", Holder: 3, Version: 2})
	res := ReadOnce(d, d.RandomPeer(rng), key, "f", rng)
	if !res.Found || res.Entry.Version != 2 || res.Entry.Holder != 3 {
		t.Fatalf("res = %+v", res)
	}
	if res.Queries != 1 {
		t.Errorf("Queries = %d", res.Queries)
	}
}

func TestReadOnceMissingName(t *testing.T) {
	rng := newRng(9)
	d := trie.BuildIdeal(16, 2, 4, rng)
	res := ReadOnce(d, d.RandomPeer(rng), bitpath.MustParse("00"), "absent", rng)
	if res.Found {
		t.Fatalf("res = %+v, want not found", res)
	}
}

func TestMajorityReadAllFresh(t *testing.T) {
	rng := newRng(10)
	d := trie.BuildIdeal(64, 2, 8, rng)
	key := bitpath.MustParse("10")
	PopulateIndex(d, store.Entry{Key: key, Name: "f", Holder: 1, Version: 5})
	res := MajorityRead(d, key, "f", MajorityOptions{Margin: 3}, rng)
	if !res.Found || res.Entry.Version != 5 {
		t.Fatalf("res = %+v", res)
	}
	if res.Queries < 3 {
		t.Errorf("decided after %d queries, margin is 3", res.Queries)
	}
}

func TestMajorityReadOutvotesStaleMinority(t *testing.T) {
	rng := newRng(11)
	d := trie.BuildIdeal(64, 2, 8, rng)
	key := bitpath.MustParse("10")
	group := d.Covering(key)
	// All replicas hold v1; a minority (3 of 16) additionally got v2...
	// rather: majority at v2, minority stale at v1.
	for i, a := range group {
		v := uint64(2)
		if i < len(group)/4 {
			v = 1
		}
		d.Peer(a).Store().Apply(store.Entry{Key: key, Name: "f", Holder: 1, Version: v})
	}
	for trial := 0; trial < 10; trial++ {
		res := MajorityRead(d, key, "f", MajorityOptions{Margin: 4}, rng)
		if !res.Found {
			t.Fatal("majority read found nothing")
		}
		if res.Entry.Version != 2 {
			t.Fatalf("trial %d: majority read returned stale version %d", trial, res.Entry.Version)
		}
	}
}

func TestMajorityReadBudgetExhaustedReturnsBestEffort(t *testing.T) {
	rng := newRng(12)
	d := trie.BuildIdeal(16, 2, 4, rng)
	key := bitpath.MustParse("01")
	PopulateIndex(d, store.Entry{Key: key, Name: "f", Holder: 1, Version: 9})
	// Margin larger than the replica group: can never decide, must fall
	// back to the best-supported version.
	res := MajorityRead(d, key, "f", MajorityOptions{Margin: 50, MaxQueries: 30}, rng)
	if !res.Found || res.Entry.Version != 9 {
		t.Fatalf("res = %+v", res)
	}
	if res.Queries != 30 {
		t.Errorf("Queries = %d, want full budget", res.Queries)
	}
}

func TestMajorityReadNothingStored(t *testing.T) {
	rng := newRng(13)
	d := trie.BuildIdeal(16, 2, 4, rng)
	res := MajorityRead(d, bitpath.MustParse("01"), "ghost", MajorityOptions{MaxQueries: 10}, rng)
	if res.Found {
		t.Fatalf("res = %+v", res)
	}
}

func TestMajorityReadNoOnlinePeers(t *testing.T) {
	rng := newRng(14)
	d := trie.BuildIdeal(16, 2, 4, rng)
	d.SetAllOnline(false)
	res := MajorityRead(d, bitpath.MustParse("01"), "f", MajorityOptions{}, rng)
	if res.Found || res.Queries != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPopulateIndexInstallsAtAllCoveringPeers(t *testing.T) {
	rng := newRng(15)
	d := trie.BuildIdeal(32, 2, 4, rng)
	key := bitpath.MustParse("110") // deeper than grid: covered by leaf 11
	n := PopulateIndex(d, store.Entry{Key: key, Name: "f", Holder: 1, Version: 1})
	want := d.Covering(key)
	if n != len(want) {
		t.Fatalf("populated %d, covering set is %d", n, len(want))
	}
	for _, a := range want {
		if _, ok := d.Peer(a).Store().Get(key, "f"); !ok {
			t.Errorf("covering peer %v missing entry", a)
		}
	}
}

// scanPopulate is PopulateIndex as a scan of the community per entry: the
// reference the path-indexed form is held to.
func scanPopulate(d *directory.Directory, entries ...store.Entry) int {
	n := 0
	for _, e := range entries {
		for _, p := range d.All() {
			if bitpath.Comparable(p.Path(), e.Key) {
				p.Store().Apply(e)
				n++
			}
		}
	}
	return n
}

// TestPopulateIndexMatchesScan seeds two copies of one built grid — uneven
// depths, and one peer replaced, so back on the empty path — by index and by
// scan: keys longer than, as long as and shorter than the paths, the empty
// key, and a newer and an older version of an earlier entry. Same count,
// and the same entries in the same order in every store.
func TestPopulateIndexMatchesScan(t *testing.T) {
	cfg := Config{MaxL: 5, RefMax: 3, RecMax: 2, RecFanout: 2}
	build := func() *directory.Directory {
		d := directory.New(150)
		rng := newRng(21)
		var m Metrics
		for i := 0; i < 700; i++ { // stopped early: paths of every length up to 5
			a1, a2 := d.RandomPair(rng)
			Exchange(d, cfg, &m, nil, a1, a2, rng)
		}
		d.Replace(17)
		return d
	}
	byIndex, byScan := build(), build()
	lengths := map[int]bool{}
	for _, p := range byIndex.All() {
		lengths[p.PathLen()] = true
	}
	if !lengths[0] || !lengths[cfg.MaxL] || len(lengths) < 3 {
		t.Fatalf("fixture has path lengths %v, want 0, %d and some between", lengths, cfg.MaxL)
	}

	rng := newRng(22)
	var entries []store.Entry
	for i, l := range []int{0, 1, 2, 3, 4, 5, 5, 6, 9, 0, 3, 7} {
		entries = append(entries, store.Entry{Key: bitpath.Random(rng, l), Name: fmt.Sprintf("f%d", i), Holder: 1, Version: 2})
	}
	newer, older := entries[3], entries[7]
	newer.Version, older.Version = 3, 1
	entries = append(entries, newer, older)

	if got, want := PopulateIndex(byIndex, entries...), scanPopulate(byScan, entries...); got != want {
		t.Errorf("index placed %d copies, scan %d", got, want)
	}
	for _, e := range entries {
		if got, want := PopulateIndex(byIndex, e), len(byIndex.Covering(e.Key)); got != want {
			t.Errorf("key %q: %d copies, covering set is %d", e.Key, got, want)
		}
	}
	for i, p := range byIndex.All() {
		got, want := p.Store().Entries(), byScan.All()[i].Store().Entries()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("peer %d (path %q):\n index %v\n scan  %v", i, p.Path(), got, want)
		}
	}
}

func TestStrategyString(t *testing.T) {
	if RepeatedDFS.String() != "repeated-dfs" ||
		RepeatedDFSBuddies.String() != "repeated-dfs+buddies" ||
		BreadthFirst.String() != "breadth-first" ||
		Strategy(99).String() != "unknown-strategy" {
		t.Error("Strategy.String wrong")
	}
}

func TestInsertReachesReplicas(t *testing.T) {
	rng := newRng(16)
	d := trie.BuildIdeal(64, 3, 8, rng)
	entry := store.Entry{Key: bitpath.MustParse("10"), Name: "new", Holder: 5, Version: 1}
	res := Insert(d, entry, 8, rng)
	if res.Replicas == 0 {
		t.Fatal("insert reached nobody")
	}
	found := 0
	for _, a := range d.Covering(entry.Key) {
		if _, ok := d.Peer(a).Store().Get(entry.Key, "new"); ok {
			found++
		}
	}
	if found != res.Replicas {
		t.Errorf("reported %d, stored at %d", res.Replicas, found)
	}
}

func TestTally(t *testing.T) {
	entry := func(v uint64) store.Entry { return store.Entry{Name: "f", Version: v} }
	var tally Tally
	if e, votes, lead := tally.Leader(); votes != 0 || lead != 0 || e != (store.Entry{}) {
		t.Errorf("empty tally leads with %v, %d votes, lead %d", e, votes, lead)
	}
	for replica, v := range []uint64{5, 2, 5, 5} {
		if !tally.Vote(addr.Addr(replica), entry(v)) {
			t.Errorf("first vote of replica %d not counted", replica)
		}
	}
	if tally.Vote(1, entry(2)) || tally.Vote(addr.Nil, entry(2)) {
		t.Error("a repeated replica or addr.Nil was counted")
	}
	if e, votes, lead := tally.Leader(); e.Version != 5 || votes != 3 || lead != 2 {
		t.Errorf("leader v%d with %d votes, lead %d; want v5, 3, 2", e.Version, votes, lead)
	}
	// Tie on votes: the higher version leads, by nothing.
	tally = Tally{}
	for replica, v := range []uint64{1, 9, 9, 1} {
		tally.Vote(addr.Addr(replica), entry(v))
	}
	if e, votes, lead := tally.Leader(); e.Version != 9 || votes != 2 || lead != 0 {
		t.Errorf("tied leader v%d with %d votes, lead %d; want v9, 2, 0", e.Version, votes, lead)
	}
}

// TestTallyMatchesSortReference replays random vote sequences through Tally
// and through the sort-per-vote count MajorityRead used to carry (kept here
// as the reference): after every vote both must name the same leader, vote
// count and lead over the runner-up. Up to 24 replicas vote for up to 7
// versions, past the 16 voters and 4 versions a tally holds in its own
// arrays.
func TestTallyMatchesSortReference(t *testing.T) {
	reference := func(votes map[uint64]int) (version uint64, lead, second int) {
		type vc struct {
			v uint64
			c int
		}
		vcs := make([]vc, 0, len(votes))
		for v, c := range votes {
			vcs = append(vcs, vc{v, c})
		}
		sort.Slice(vcs, func(i, j int) bool {
			if vcs[i].c != vcs[j].c {
				return vcs[i].c > vcs[j].c
			}
			return vcs[i].v > vcs[j].v
		})
		if len(vcs) == 0 {
			return 0, 0, 0
		}
		if len(vcs) > 1 {
			second = vcs[1].c
		}
		return vcs[0].v, vcs[0].c, second
	}
	rng := newRng(21)
	pastRoom := 0
	for seq := 0; seq < 200; seq++ {
		var tally Tally
		votes := map[uint64]int{}
		latest := map[uint64]store.Entry{}
		seen := map[addr.Addr]bool{}
		versions := 1 + rng.Intn(7)
		for i := 0; i < 40; i++ {
			replica := addr.Addr(rng.Intn(24))
			v := uint64(1 + rng.Intn(versions))
			// Holder tells apart the entries reported for one version: the
			// latest one counted is the one a read returns.
			reported := store.Entry{Name: "f", Version: v, Holder: replica}
			fresh := !seen[replica]
			if fresh {
				seen[replica] = true
				votes[v]++
				latest[v] = reported
			}
			if got := tally.Vote(replica, reported); got != fresh {
				t.Fatalf("sequence %d vote %d: counted = %v, want %v", seq, i, got, fresh)
			}
			wantV, wantLead, wantSecond := reference(votes)
			e, n, lead := tally.Leader()
			if e != latest[wantV] || n != wantLead || lead != wantLead-wantSecond {
				t.Fatalf("sequence %d vote %d: leader v%d, %d votes, lead %d; reference v%d, %d, %d",
					seq, i, e.Version, n, lead, wantV, wantLead, wantLead-wantSecond)
			}
		}
		if len(seen) > len(tally.voters) && len(votes) > len(tally.versions) {
			pastRoom++
		}
	}
	if pastRoom == 0 {
		t.Error("no sequence went past the tally's room")
	}
}
