package flood

import (
	"math/rand"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
)

func entry(name string, holder addr.Addr) store.Entry {
	return store.Entry{Key: bitpath.HashKey(name, 10), Name: name, Holder: holder, Version: 1}
}

func TestNewTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nw := New(rng, 50, 3)
	if nw.N() != 50 {
		t.Fatalf("N = %d", nw.N())
	}
	for i := 0; i < 50; i++ {
		nbs := nw.neighbors[i]
		if len(nbs) < 3 {
			t.Errorf("peer %d has only %d links", i, len(nbs))
		}
		seen := map[addr.Addr]bool{}
		for _, nb := range nbs {
			if nb == addr.Addr(i) {
				t.Errorf("peer %d linked to itself", i)
			}
			if seen[nb] {
				t.Errorf("peer %d has duplicate link to %v", i, nb)
			}
			seen[nb] = true
		}
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, f := range []func(){
		func() { New(rng, 1, 2) },
		func() { New(rng, 5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSearchFindsHostedItem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := New(rng, 100, 4)
	nw.Host(42, entry("song.mp3", 42))
	res := nw.Search(rng, 0, "song.mp3", 10)
	if len(res.Found) == 0 {
		t.Fatal("flood with generous TTL missed the item")
	}
	if res.Found[0].Holder != 42 {
		t.Errorf("found %v", res.Found[0])
	}
	if res.Messages == 0 || res.Reached < 2 {
		t.Errorf("res = %+v", res)
	}
}

func TestSearchTTLZeroIsLocalOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw := New(rng, 10, 2)
	nw.Host(0, entry("mine.mp3", 0))
	nw.Host(5, entry("theirs.mp3", 5))
	res := nw.Search(rng, 0, "mine.mp3", 0)
	if len(res.Found) != 1 || res.Messages != 0 || res.Reached != 1 {
		t.Errorf("local search res = %+v", res)
	}
	res = nw.Search(rng, 0, "theirs.mp3", 0)
	if len(res.Found) != 0 {
		t.Errorf("TTL 0 reached a remote item: %+v", res)
	}
}

func TestSearchMessagesGrowWithTTL(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := New(rng, 500, 3)
	m1 := nw.Search(rng, 0, "absent", 1).Messages
	m4 := nw.Search(rng, 0, "absent", 4).Messages
	if m4 <= m1 {
		t.Errorf("messages did not grow with TTL: %d vs %d", m1, m4)
	}
}

func TestSearchSkipsOfflinePeersButPaysTransmission(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nw := New(rng, 30, 3)
	nw.Host(7, entry("x.mp3", 7))
	nw.SetOnline(7, false)
	res := nw.Search(rng, 0, "x.mp3", 10)
	if len(res.Found) != 0 {
		t.Error("offline host answered")
	}
	if res.Messages == 0 {
		t.Error("transmissions to offline peers must still cost")
	}
}

func TestSearchFromOfflineStart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := New(rng, 10, 2)
	nw.SetOnline(0, false)
	res := nw.Search(rng, 0, "whatever", 5)
	if res.Reached != 0 || res.Messages != 0 {
		t.Errorf("offline start produced %+v", res)
	}
	if res2 := nw.Search(rng, addr.Nil, "whatever", 5); res2.Reached != 0 {
		t.Errorf("nil start produced %+v", res2)
	}
}

func TestSampleOnlineAndRandomOnlinePeer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nw := New(rng, 200, 2)
	nw.SampleOnline(rng, 0)
	if nw.RandomOnlinePeer(rng) != addr.Nil {
		t.Error("expected no online peer")
	}
	nw.SampleOnline(rng, 1)
	if nw.RandomOnlinePeer(rng) == addr.Nil {
		t.Error("expected an online peer")
	}
}

func TestFloodCostIsLinearInReach(t *testing.T) {
	// The motivating claim: flooding cost scales with the number of peers
	// reached, not with log N. Doubling the network roughly doubles the
	// messages for a full-coverage TTL.
	rng := rand.New(rand.NewSource(9))
	small := New(rng, 200, 3)
	big := New(rng, 400, 3)
	ms := small.Search(rng, 0, "absent", 20).Messages
	mb := big.Search(rng, 0, "absent", 20).Messages
	if float64(mb) < 1.5*float64(ms) {
		t.Errorf("messages %d (N=200) vs %d (N=400): not linear-ish", ms, mb)
	}
}

// N returns the community size.
func (nw *Network) N() int { return len(nw.neighbors) }

// SetOnline sets a peer's reachability.
func (nw *Network) SetOnline(a addr.Addr, v bool) { nw.online[a] = v }

// SampleOnline sets each peer online independently with probability p.
func (nw *Network) SampleOnline(rng *rand.Rand, p float64) {
	for i := range nw.online {
		nw.online[i] = rng.Float64() < p
	}
}
