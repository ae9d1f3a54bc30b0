package pgrid

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func testGrid(t *testing.T) *Grid {
	t.Helper()
	return BuildIdeal(256, 4, 8, 1)
}

func TestBuildConvergesSmall(t *testing.T) {
	g, err := Build(Options{
		Peers: 120, MaxPathLen: 4, RefMax: 4, RecMax: 2, RecFanout: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.AvgPathLen < 0.99*4 {
		t.Errorf("avg path length = %v", s.AvgPathLen)
	}
	if s.Peers != 120 || s.Online != 120 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBuildConcurrentOption(t *testing.T) {
	g, err := Build(Options{
		Peers: 300, MaxPathLen: 4, RefMax: 4, RecMax: 2, RecFanout: 2, Seed: 8, Concurrent: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsBadOptions(t *testing.T) {
	if _, err := Build(Options{Peers: 1, MaxPathLen: 2, RefMax: 1}); err == nil {
		t.Error("Peers=1 accepted")
	}
	if _, err := Build(Options{Peers: 10, MaxPathLen: 0, RefMax: 1}); err == nil {
		t.Error("MaxPathLen=0 accepted")
	}
}

func TestDefaultOptionsScaleDepthWithN(t *testing.T) {
	small := DefaultOptions(64)
	big := DefaultOptions(65536)
	if small.MaxPathLen >= big.MaxPathLen {
		t.Errorf("depths %d !< %d", small.MaxPathLen, big.MaxPathLen)
	}
	if small.RecMax != 2 || small.RecFanout != 2 {
		t.Errorf("defaults = %+v", small)
	}
	// Default depth keeps ≥ 8 replicas per leaf.
	if leaves := 1 << uint(big.MaxPathLen); 65536/leaves < 8 {
		t.Errorf("depth %d leaves too few replicas", big.MaxPathLen)
	}
}

func TestPublishLookupRoundTrip(t *testing.T) {
	g := testGrid(t)
	key := HashKey("song.mp3", 4)
	if _, err := g.Publish(Entry{Key: key, Name: "song.mp3", Holder: 42}); err != nil {
		t.Fatal(err)
	}
	e, cost, err := g.Lookup(key, "song.mp3")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "song.mp3" || e.Holder != 42 || e.Version != 1 {
		t.Errorf("entry = %+v", e)
	}
	if cost.Messages > 4 {
		t.Errorf("lookup cost %d messages on a depth-4 grid", cost.Messages)
	}
}

func TestLookupMissing(t *testing.T) {
	g := testGrid(t)
	_, _, err := g.Lookup(HashKey("ghost", 4), "ghost")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadKeysRejectedEverywhere(t *testing.T) {
	g := testGrid(t)
	bad := "01x1"
	if _, err := g.Publish(Entry{Key: bad, Name: "n"}); !errors.Is(err, ErrBadKey) {
		t.Errorf("Publish err = %v", err)
	}
	if _, err := g.Search(bad); !errors.Is(err, ErrBadKey) {
		t.Errorf("Search err = %v", err)
	}
	if _, _, err := g.Lookup(bad, "n"); !errors.Is(err, ErrBadKey) {
		t.Errorf("Lookup err = %v", err)
	}
	if _, _, err := g.MajorityLookup(bad, "n", 3); !errors.Is(err, ErrBadKey) {
		t.Errorf("MajorityLookup err = %v", err)
	}
	if _, _, err := g.PrefixSearch(bad); !errors.Is(err, ErrBadKey) {
		t.Errorf("PrefixSearch err = %v", err)
	}
	if _, err := g.Update(Entry{Key: bad, Name: "n"}, 2, 1); !errors.Is(err, ErrBadKey) {
		t.Errorf("Update err = %v", err)
	}
	if err := g.SeedIndex(Entry{Key: bad, Name: "n"}); !errors.Is(err, ErrBadKey) {
		t.Errorf("SeedIndex err = %v", err)
	}
}

func TestSearchFindsResponsiblePeer(t *testing.T) {
	g := testGrid(t)
	res, err := g.Search("0110")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix("0110", res.Path) && !strings.HasPrefix(res.Path, "0110") {
		t.Errorf("responsible path %q not comparable with key", res.Path)
	}
}

func TestUpdateAndMajorityLookup(t *testing.T) {
	g := testGrid(t)
	key := HashKey("doc", 4)
	if err := g.SeedIndex(Entry{Key: key, Name: "doc", Holder: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	cost, err := g.Update(Entry{Key: key, Name: "doc", Holder: 2, Version: 2}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Replicas == 0 {
		t.Fatal("update reached no replicas")
	}
	e, _, err := g.MajorityLookup(key, "doc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 2 {
		t.Errorf("majority read returned version %d", e.Version)
	}
}

func TestVersionZeroMeansOne(t *testing.T) {
	g := testGrid(t)
	key := HashKey("v0", 4)
	if _, err := g.Publish(Entry{Key: key, Name: "v0", Holder: 1}); err != nil {
		t.Fatal(err)
	}
	e, _, err := g.Lookup(key, "v0")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 1 {
		t.Errorf("version = %d", e.Version)
	}
}

func TestPrefixSearchOverTextKeys(t *testing.T) {
	g := BuildIdeal(512, 5, 8, 2)
	words := []string{"alpha", "alpine", "beta", "gamma"}
	for i, w := range words {
		if err := g.SeedIndex(Entry{Key: TextKey(w, 24), Name: w, Holder: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	// All keys starting with "al" — TextKey("al", 16) is the prefix.
	got, _, err := g.PrefixSearch(TextKey("al", 16))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range got {
		names[e.Name] = true
	}
	if !names["alpha"] || !names["alpine"] || names["beta"] || names["gamma"] {
		t.Errorf("prefix search returned %v", names)
	}
}

func TestPrefixSearchDedupesToFreshest(t *testing.T) {
	g := testGrid(t)
	key := HashKey("dup", 4)
	if err := g.SeedIndex(Entry{Key: key, Name: "dup", Holder: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	// A deeper update that only reached some replicas: PrefixSearch must
	// surface the freshest version it saw.
	if _, err := g.Update(Entry{Key: key, Name: "dup", Holder: 2, Version: 5}, 2, 1); err != nil {
		t.Fatal(err)
	}
	got, _, err := g.PrefixSearch(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if got[0].Version != 5 || got[0].Holder != 2 {
		t.Errorf("entry = %+v, want freshest", got[0])
	}
}

// TestSearchKeepsSameNameUnderDifferentKeys: an item's identity is
// (key, name), so two items called a.txt under neighbouring keys are two
// results of a prefix or range search over both, not one.
func TestSearchKeepsSameNameUnderDifferentKeys(t *testing.T) {
	g := BuildIdeal(64, 3, 4, 9)
	for i, key := range []string{"0100", "0101"} {
		if err := g.SeedIndex(Entry{Key: key, Name: "a.txt", Holder: i + 1, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	want := []Entry{{Key: "0100", Name: "a.txt", Holder: 1, Version: 1}, {Key: "0101", Name: "a.txt", Holder: 2, Version: 1}}
	if got, _, err := g.PrefixSearch("010"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("PrefixSearch(010) = %v, %v, want %v", got, err, want)
	}
	if got, _, err := g.RangeSearch("0100", "0101"); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("RangeSearch(0100, 0101) = %v, %v, want %v", got, err, want)
	}
}

func TestSetOnlineFraction(t *testing.T) {
	g := testGrid(t)
	g.SetOnlineFraction(0.3)
	s := g.Stats()
	if s.Online == 0 || s.Online == s.Peers {
		t.Errorf("online = %d of %d", s.Online, s.Peers)
	}
	g.SetOnlineFraction(1)
	if got := g.Stats().Online; got != g.N() {
		t.Errorf("online after restore = %d", got)
	}
}

func TestChurnStep(t *testing.T) {
	g := testGrid(t)
	for i := 0; i < 50; i++ {
		g.ChurnStep(0.5, 10)
	}
	s := g.Stats()
	if s.Online == 0 || s.Online == s.Peers {
		t.Errorf("churn left online = %d of %d", s.Online, s.Peers)
	}
}

func TestStatsShape(t *testing.T) {
	g := testGrid(t)
	s := g.Stats()
	if s.Peers != 256 || s.MaxPathLen != 4 || s.AvgPathLen != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.ReplicaMean < 15 || s.ReplicaMean > 17 {
		t.Errorf("replica mean = %v, want 16", s.ReplicaMean)
	}
	if err := g.SeedIndex(Entry{Key: "0000", Name: "x", Holder: 1}); err != nil {
		t.Fatal(err)
	}
	if got := g.Stats().IndexEntries; got == 0 {
		t.Error("IndexEntries not counted")
	}
}

func TestUnreachableWhenAllOffline(t *testing.T) {
	g := testGrid(t)
	g.SetOnlineFraction(0)
	if _, err := g.Search("0101"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Search err = %v", err)
	}
	if _, _, err := g.Lookup("0101", "x"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Lookup err = %v", err)
	}
	if _, err := g.Publish(Entry{Key: "0101", Name: "x"}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Publish err = %v", err)
	}
	if _, _, err := g.PrefixSearch("01"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("PrefixSearch err = %v", err)
	}
}

func TestGridMethodsAreConcurrencySafe(t *testing.T) {
	g := testGrid(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := FileNameForTest(w, i)
				key := HashKey(name, 4)
				g.Publish(Entry{Key: key, Name: name, Holder: w})
				g.Lookup(key, name)
				g.Search(key)
				g.Stats()
			}
		}(w)
	}
	wg.Wait()
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

// FileNameForTest fabricates a distinct name per (worker, iteration).
func FileNameForTest(w, i int) string {
	return "f-" + string(rune('a'+w)) + "-" + string(rune('a'+i%26)) + ".dat"
}

func TestHashKeyAndTextKeyShapes(t *testing.T) {
	if len(HashKey("x", 10)) != 10 {
		t.Error("HashKey length wrong")
	}
	if len(TextKey("x", 12)) != 12 {
		t.Error("TextKey length wrong")
	}
	for _, c := range HashKey("y", 20) + TextKey("y", 20) {
		if c != '0' && c != '1' {
			t.Fatalf("non-binary character %q", c)
		}
	}
}
