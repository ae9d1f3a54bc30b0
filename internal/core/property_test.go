package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/store"
	"pgrid/internal/trie"
)

// Property tests over randomized configurations: the structural guarantees
// must hold for ANY sensible parameter combination, not just the paper's.

func TestPropQueryOnIdealGridAlwaysCoversKey(t *testing.T) {
	f := func(seed int64, depthRaw, refmaxRaw uint8, keyRaw uint16) bool {
		depth := int(depthRaw%4) + 1   // 1..4
		refmax := int(refmaxRaw%3) + 1 // 1..3
		n := (1 << uint(depth)) * 4
		rng := rand.New(rand.NewSource(seed))
		d := trie.BuildIdeal(n, depth, refmax, rng)
		key := bitpath.FromUint(uint64(keyRaw)&((1<<uint(depth))-1), depth)
		res := Query(d, d.RandomPeer(rng), key, rng)
		if !res.Found {
			return false // everyone online: must always succeed
		}
		if res.Messages > depth {
			return false // greedy routing resolves ≥1 bit per hop
		}
		return bitpath.Comparable(d.Peer(res.Peer).Path(), key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropExchangePreservesInvariantsForAnyConfig(t *testing.T) {
	f := func(seed int64, maxlRaw, refmaxRaw, recmaxRaw, fanoutRaw uint8) bool {
		cfg := Config{
			MaxL:      int(maxlRaw%5) + 1,
			RefMax:    int(refmaxRaw%4) + 1,
			RecMax:    int(recmaxRaw % 4),
			RecFanout: int(fanoutRaw % 3),
		}
		rng := rand.New(rand.NewSource(seed))
		d := directory.New(24)
		var m Metrics
		for i := 0; i < 1500; i++ {
			a1, a2 := d.RandomPair(rng)
			Exchange(d, cfg, &m, nil, a1, a2, rng)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Logf("config %+v: %v", cfg, err)
			return false
		}
		if d.MaxRefsPerLevel() > cfg.RefMax {
			return false
		}
		for _, p := range d.All() {
			if p.PathLen() > cfg.MaxL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropPathsOnlyEverGrow(t *testing.T) {
	// Monotonicity: no sequence of exchanges ever shortens or rewrites a
	// peer's existing prefix (the paper explicitly rejects path shortening
	// in Section 3; every reference's validity depends on this).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{MaxL: 4, RefMax: 2, RecMax: 2, RecFanout: 2}
		d := directory.New(16)
		var m Metrics
		prev := make([]bitpath.Path, 16)
		for i := 0; i < 800; i++ {
			a1, a2 := d.RandomPair(rng)
			Exchange(d, cfg, &m, nil, a1, a2, rng)
			for j, p := range d.All() {
				cur := p.Path()
				if !prev[j].IsPrefixOf(cur) {
					t.Logf("peer %d path %q no longer extends %q", j, cur, prev[j])
					return false
				}
				prev[j] = cur
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropMajorityReadNeverReturnsUnknownVersion(t *testing.T) {
	f := func(seed int64, versionsRaw []uint8) bool {
		if len(versionsRaw) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		d := trie.BuildIdeal(32, 2, 4, rng)
		key := bitpath.MustParse("01")
		written := map[uint64]bool{}
		group := d.Covering(key)
		for i, v := range versionsRaw {
			ver := uint64(v%8) + 1
			written[ver] = true
			a := group[i%len(group)]
			d.Peer(a).Store().Apply(storeEntry(key, "x", ver))
		}
		res := MajorityRead(d, key, "x", MajorityOptions{Margin: 2, MaxQueries: 40}, rng)
		if !res.Found {
			return true // nothing reachable is fine
		}
		return written[res.Entry.Version]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func storeEntry(key bitpath.Path, name string, version uint64) store.Entry {
	return store.Entry{Key: key, Name: name, Holder: 1, Version: version}
}
