package pgrid

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestJoinGrowsCommunity(t *testing.T) {
	g := BuildIdeal(256, 4, 8, 1)
	before := g.N()
	st, err := g.Join()
	if err != nil {
		t.Fatalf("join: %v (%+v)", err, st)
	}
	if g.N() != before+1 {
		t.Errorf("N = %d, want %d", g.N(), before+1)
	}
	if st.Peer != before || st.Depth != 4 || !st.Settled {
		t.Errorf("stats = %+v", st)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	// The newcomer participates: searches can start anywhere and still
	// work.
	for i := 0; i < 20; i++ {
		if _, err := g.Search("0101"); err != nil {
			t.Fatalf("search after join: %v", err)
		}
	}
}

func TestJoinManySequential(t *testing.T) {
	g := BuildIdeal(128, 4, 6, 2)
	for i := 0; i < 16; i++ {
		if _, err := g.Join(); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Peers != 144 {
		t.Errorf("peers = %d", s.Peers)
	}
}

func TestMaintainRepairsAfterOfflineWave(t *testing.T) {
	g := BuildIdeal(256, 4, 6, 3)
	g.SetOnlineFraction(0.6)
	st := g.Maintain()
	if st.Probed == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AliveFraction < 0.99 {
		t.Errorf("alive fraction after maintain = %v", st.AliveFraction)
	}
	g.SetOnlineFraction(1)
}

func TestMaintainKeepsKeysShorterThanPaths(t *testing.T) {
	// A key of one bit is stored at every peer whose path extends it; that
	// peer is responsible for it, so maintenance must leave it in place.
	g := BuildIdeal(256, 4, 6, 3)
	if _, err := g.Publish(Entry{Key: "0", Name: "short"}); err != nil {
		t.Fatal(err)
	}
	holders := func() int {
		n := 0
		for _, p := range g.Directory().All() {
			if p.Store().Len() > 0 {
				n++
			}
		}
		return n
	}
	before := holders()
	if before == 0 {
		t.Fatal("publish stored the entry nowhere")
	}
	g.Maintain()
	if after := holders(); after != before {
		t.Errorf("maintain left the entry at %d peers, %d held it before", after, before)
	}
	if _, _, err := g.Lookup("0", "short"); err != nil {
		t.Errorf("lookup after maintain: %v", err)
	}
}

func TestTraceRoute(t *testing.T) {
	g := BuildIdeal(256, 4, 8, 4)
	hops, res, err := g.Trace("0110")
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) == 0 {
		t.Fatal("no hops recorded")
	}
	last := hops[len(hops)-1]
	if !last.Matched || last.Peer != res.Peer {
		t.Errorf("last hop %+v, result %+v", last, res)
	}
	if !strings.HasPrefix("0110", res.Path) && !strings.HasPrefix(res.Path, "0110") {
		t.Errorf("result path %q not comparable", res.Path)
	}
	if _, _, err := g.Trace("01x"); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad key err = %v", err)
	}
	g.SetOnlineFraction(0)
	if _, _, err := g.Trace("0110"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dead community err = %v", err)
	}
}

func TestWarmLearnsIntoSpareCapacity(t *testing.T) {
	// Build with refmax 2 via the public API, then lift the budget and
	// warm: references must be learned and the grid must stay valid.
	g, err := Build(Options{Peers: 200, MaxPathLen: 5, RefMax: 2, RecMax: 2, RecFanout: 2, Threshold: 0.95, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	g.cfg.RefMax = 8 // widen the operational budget
	st := g.Warm(1000)
	if st.Learned == 0 {
		t.Fatalf("warm stats = %+v", st)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSearch(t *testing.T) {
	g := BuildIdeal(256, 4, 8, 6)
	// Keys 0000…1111; publish one item per key.
	for v := 0; v < 16; v++ {
		key := fmt.Sprintf("%04b", v)
		if err := g.SeedIndex(Entry{Key: key, Name: fmt.Sprintf("item-%02d", v), Holder: v + 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, cost, err := g.RangeSearch("0011", "0110")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d entries: %v", len(got), got)
	}
	for i, want := range []string{"0011", "0100", "0101", "0110"} {
		if got[i].Key != want {
			t.Errorf("got[%d].Key = %q, want %q", i, got[i].Key, want)
		}
	}
	if cost.Messages == 0 {
		t.Error("free range search is implausible")
	}
	// Full range returns everything.
	all, _, err := g.RangeSearch("0000", "1111")
	if err != nil || len(all) != 16 {
		t.Fatalf("full range: %d entries, err %v", len(all), err)
	}
	// Single-key range.
	one, _, err := g.RangeSearch("1010", "1010")
	if err != nil || len(one) != 1 || one[0].Key != "1010" {
		t.Fatalf("single range: %v, %v", one, err)
	}
}

func TestRangeSearchErrors(t *testing.T) {
	g := BuildIdeal(64, 3, 4, 7)
	if _, _, err := g.RangeSearch("01x", "011"); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad lo err = %v", err)
	}
	if _, _, err := g.RangeSearch("011", "01x"); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad hi err = %v", err)
	}
	if _, _, err := g.RangeSearch("011", "001"); err == nil {
		t.Error("inverted range accepted")
	}
	g.SetOnlineFraction(0)
	if _, _, err := g.RangeSearch("000", "111"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dead community err = %v", err)
	}
}

func TestRangeSearchFreshestVersionWins(t *testing.T) {
	g := BuildIdeal(64, 3, 4, 8)
	if err := g.SeedIndex(Entry{Key: "010", Name: "doc", Holder: 1, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Update(Entry{Key: "010", Name: "doc", Holder: 2, Version: 4}, 4, 2); err != nil {
		t.Fatal(err)
	}
	got, _, err := g.RangeSearch("000", "111")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Version != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestLookupAllEnumeratesNamesUnderKey(t *testing.T) {
	g := BuildIdeal(256, 4, 8, 5)
	key := "0101"
	for _, name := range []string{"a", "b", "c"} {
		if err := g.SeedIndex(Entry{Key: key, Name: name, Holder: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := g.LookupAll(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i].Name != want {
			t.Errorf("got[%d] = %+v", i, got[i])
		}
	}
	if _, _, err := g.LookupAll("0011"); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty key err = %v", err)
	}
	if _, _, err := g.LookupAll("2"); !errors.Is(err, ErrBadKey) {
		t.Errorf("bad key err = %v", err)
	}
}
