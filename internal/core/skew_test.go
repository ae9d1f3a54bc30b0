package core

import (
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
	"pgrid/internal/store"
)

// Tests for the data-aware splitting gate (Config.SplitMinItems) and the
// replica anti-entropy added for the skew extension.

func seedItems(d *directory.Directory, peerIdx int, keys ...string) {
	for i, k := range keys {
		d.Peer(addrOfInt(peerIdx)).Store().Apply(store.Entry{
			Key: bitpath.MustParse(k), Name: k + "-" + string(rune('a'+i)), Holder: 1, Version: 1,
		})
	}
}

func TestSplitGateBlocksEmptyRegions(t *testing.T) {
	rng := newRng(1)
	cfg := Config{MaxL: 6, RefMax: 2, RecMax: 0, SplitMinItems: 4}
	d := directory.New(2)
	// Only 2 items between them: below the threshold, no split.
	seedItems(d, 0, "0000")
	seedItems(d, 1, "1000")
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), rng)
	if d.Peer(0).PathLen() != 0 || d.Peer(1).PathLen() != 0 {
		t.Fatalf("split happened below threshold: %q, %q", d.Peer(0).Path(), d.Peer(1).Path())
	}
	// They become replicas (buddies) of the unsplit region instead.
	if !d.Peer(0).Buddies().Contains(1) {
		t.Error("under-threshold meeting did not record buddies")
	}
}

func TestSplitGateAllowsDenseRegions(t *testing.T) {
	rng := newRng(2)
	cfg := Config{MaxL: 6, RefMax: 2, RecMax: 0, SplitMinItems: 4}
	d := directory.New(2)
	seedItems(d, 0, "0000", "0001", "0010")
	seedItems(d, 1, "1000", "1001")
	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), rng)
	if d.Peer(0).Path() != "0" || d.Peer(1).Path() != "1" {
		t.Fatalf("dense region did not split: %q, %q", d.Peer(0).Path(), d.Peer(1).Path())
	}
	// Data migrated to the right sides.
	if d.Peer(0).Store().Len() != 3 || d.Peer(1).Store().Len() != 2 {
		t.Errorf("stores after split: %d, %d", d.Peer(0).Store().Len(), d.Peer(1).Store().Len())
	}
}

func TestAntiEntropyMergesReplicaIndexes(t *testing.T) {
	rng := newRng(3)
	cfg := Config{MaxL: 1, RefMax: 2, RecMax: 0}
	d := directory.New(3)
	// Peers 0 and 1 both at path "0" (replicas at maxl); each knows a
	// different entry, and one entry in two versions.
	d.Peer(0).ExtendFrom(bitpath.Empty, 0, refsFrom(2))
	d.Peer(1).ExtendFrom(bitpath.Empty, 0, refsFrom(2))
	d.Peer(2).ExtendFrom(bitpath.Empty, 1, refsFrom(0))
	d.Peer(0).Store().Apply(store.Entry{Key: "00", Name: "a", Holder: 1, Version: 1})
	d.Peer(0).Store().Apply(store.Entry{Key: "01", Name: "shared", Holder: 1, Version: 5})
	d.Peer(1).Store().Apply(store.Entry{Key: "01", Name: "b", Holder: 2, Version: 1})
	d.Peer(1).Store().Apply(store.Entry{Key: "01", Name: "shared", Holder: 9, Version: 3})

	var m Metrics
	Exchange(d, cfg, &m, nil, d.Peer(0), d.Peer(1), rng)

	for _, pi := range []int{0, 1} {
		st := d.Peer(addrOfInt(pi)).Store()
		if _, ok := st.Get("00", "a"); !ok {
			t.Errorf("peer %d missing entry a after anti-entropy", pi)
		}
		if _, ok := st.Get("01", "b"); !ok {
			t.Errorf("peer %d missing entry b after anti-entropy", pi)
		}
		if e, _ := st.Get("01", "shared"); e.Version != 5 {
			t.Errorf("peer %d has shared at version %d, want freshest 5", pi, e.Version)
		}
	}
}

func TestDataAwareBuildAdaptsDepthToSkew(t *testing.T) {
	// Under a skewed catalog, data-aware splitting must give hot regions
	// deeper paths than cold regions — the adaptive behaviour the paper's
	// Section 6 calls for.
	rng := newRng(4)
	cfg := Config{MaxL: 8, RefMax: 3, RecMax: 2, RecFanout: 2, SplitMinItems: 8}
	d := directory.New(200)
	// 90% of items under prefix 00, the rest spread over 01/10/11.
	for i := 0; i < 2000; i++ {
		var key bitpath.Path
		if i%10 != 0 {
			key = "00" + bitpath.Random(rng, 6)
		} else {
			key = bitpath.Random(rng, 8)
			if key.HasPrefix("00") {
				key = "11" + key.Suffix(2)
			}
		}
		p := d.RandomPeer(rng)
		p.Store().Apply(store.Entry{Key: key, Name: key.String() + "-" + string(rune('a'+i%26)) + string(rune('a'+i/26%26)) + string(rune('a'+i/676)), Holder: p.Addr(), Version: 1})
	}
	var m Metrics
	for i := 0; i < 60000; i++ {
		a1, a2 := d.RandomPair(rng)
		Exchange(d, cfg, &m, nil, a1, a2, rng)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	var hotDepth, hotN, coldDepth, coldN int
	for _, p := range d.All() {
		path := p.Path()
		if path.Len() < 2 {
			continue
		}
		if path.HasPrefix("00") {
			hotDepth += path.Len()
			hotN++
		} else {
			coldDepth += path.Len()
			coldN++
		}
	}
	if hotN == 0 || coldN == 0 {
		t.Fatalf("degenerate split: hot=%d cold=%d", hotN, coldN)
	}
	hot := float64(hotDepth) / float64(hotN)
	cold := float64(coldDepth) / float64(coldN)
	if hot <= cold+0.5 {
		t.Errorf("hot region depth %.2f not deeper than cold %.2f", hot, cold)
	}
}
