package directory

import (
	"math/rand"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/peer"
)

// Regression tests for the hot-path optimizations: RandomOnlinePeer must not
// allocate (it used to build an O(N) slice per call), and the incremental
// path-length sum behind the O(1) AvgPathLen must track every mutation the
// directory can apply to a peer.

func TestRandomOnlinePeerNoAlloc(t *testing.T) {
	d := New(1024)
	rng := rand.New(rand.NewSource(1))

	// Fast path: everyone online, rejection sampling hits immediately.
	if allocs := testing.AllocsPerRun(100, func() {
		if d.RandomOnlinePeer(rng) == nil {
			t.Fatal("no peer found with all online")
		}
	}); allocs != 0 {
		t.Errorf("RandomOnlinePeer allocated %v objects/call with all peers online", allocs)
	}

	// Fallback path: one peer online out of 1024, so the bounded rejection
	// budget is regularly exhausted and the reservoir scan runs.
	d.SetAllOnline(false)
	d.Peer(17).SetOnline(true)
	if allocs := testing.AllocsPerRun(100, func() {
		p := d.RandomOnlinePeer(rng)
		if p == nil || p.Addr() != 17 {
			t.Fatalf("RandomOnlinePeer = %v, want peer 17", p)
		}
	}); allocs != 0 {
		t.Errorf("RandomOnlinePeer allocated %v objects/call on the scan fallback", allocs)
	}
}

func TestRandomOnlinePeerUniformOnFallback(t *testing.T) {
	// With 4 online peers out of 4096, nearly every call falls through to
	// the reservoir scan; the draw must stay uniform across the online set.
	d := New(4096)
	d.SetAllOnline(false)
	online := []addr.Addr{3, 1000, 2000, 4095}
	for _, a := range online {
		d.Peer(a).SetOnline(true)
	}
	rng := rand.New(rand.NewSource(2))
	counts := map[addr.Addr]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		p := d.RandomOnlinePeer(rng)
		if p == nil {
			t.Fatal("nil with 4 peers online")
		}
		counts[p.Addr()]++
	}
	for _, a := range online {
		got := counts[a]
		if got < draws/8 || got > draws/2 {
			t.Errorf("peer %v drawn %d/%d times, want ≈ %d", a, got, draws, draws/4)
		}
	}
}

func TestPathLenSumTracksMutations(t *testing.T) {
	d := New(8)
	checkSum := func(ctx string) {
		t.Helper()
		want := int64(0)
		for _, l := range pathLengths(d) {
			want += int64(l)
		}
		if got := d.pathSum.Load(); got != want {
			t.Fatalf("%s: pathSum = %d, scan = %d", ctx, got, want)
		}
	}
	checkSum("fresh")

	// Extension via the public conditional API.
	if !d.Peer(0).ExtendFrom(bitpath.Empty, 0, addr.NewSet(1)) {
		t.Fatal("extend failed")
	}
	if !d.Peer(1).ExtendFrom(bitpath.Empty, 1, addr.NewSet(0)) {
		t.Fatal("extend failed")
	}
	checkSum("after ExtendFrom")

	// A failed conditional extension must not move the counter.
	if d.Peer(0).ExtendFrom(bitpath.Empty, 1, addr.NewSet(2)) {
		t.Fatal("stale extend applied")
	}
	checkSum("after failed ExtendFrom")

	// Extension via the locked editor (the exchange algorithm's path).
	peer.Edit(d.Peer(0), func(e peer.Editor) {
		e.Extend(1, addr.NewSet(1))
	})
	checkSum("after Editor.Extend")

	// Restore shrinks or grows the path wholesale.
	snap := d.Peer(1).Snapshot()
	snap.Path = bitpath.MustParse("101")
	snap.Refs = []addr.Set{addr.NewSet(0), addr.NewSet(2), addr.NewSet(3)}
	if err := d.Peer(1).Restore(snap); err != nil {
		t.Fatal(err)
	}
	checkSum("after Restore growing the path")

	// Replace discards a deep peer for a fresh one; the discarded object
	// must stop contributing even if mutated afterwards.
	old := d.Peer(1)
	d.Replace(1)
	checkSum("after Replace")
	if !old.ExtendFrom(bitpath.MustParse("101"), 0, addr.NewSet(0)) {
		t.Fatal("extend of discarded peer failed")
	}
	checkSum("after mutating the discarded peer")

	// Dynamic membership.
	p := d.AddPeer()
	if !p.ExtendFrom(bitpath.Empty, 0, addr.NewSet(1)) {
		t.Fatal("extend failed")
	}
	checkSum("after AddPeer + extend")

	if got, want := d.AvgPathLen(), float64(d.pathSum.Load())/float64(d.N()); got != want {
		t.Errorf("AvgPathLen = %v, want %v", got, want)
	}
}

func BenchmarkRandomOnlinePeer(b *testing.B) {
	for _, tc := range []struct {
		name   string
		online float64
	}{
		{"all-online", 1.0},
		{"30pct-online", 0.3},
		{"1pct-online", 0.01},
	} {
		b.Run(tc.name, func(b *testing.B) {
			d := New(4096)
			rng := rand.New(rand.NewSource(1))
			d.SampleOnline(rng, tc.online)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if d.RandomOnlinePeer(rng) == nil {
					b.Fatal("no online peer")
				}
			}
		})
	}
}
