package core

import (
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/directory"
)

// sparseGrid builds a constructed grid whose reference sets are far below
// refmax, leaving room for learning.
func sparseGrid(t *testing.T, n int, cfg Config, seed int64) *directory.Directory {
	t.Helper()
	rng := newRng(seed)
	d := directory.New(n)
	var m Metrics
	for i := 0; i < 200*n; i++ {
		a1, a2 := d.RandomPair(rng)
		Exchange(d, cfg, &m, nil, a1, a2, rng)
	}
	if d.AvgPathLen() < 0.9*float64(cfg.MaxL) {
		t.Fatalf("sparse grid did not converge: %.2f", d.AvgPathLen())
	}
	return d
}

func TestLearnFromTraceAddsValidRefs(t *testing.T) {
	// Build with a tight reference budget, then learn into a larger one:
	// construction fills sets to its refmax, so spare capacity (and hence
	// anything to learn) only exists when operations allow more.
	build := Config{MaxL: 5, RefMax: 2, RecMax: 2, RecFanout: 2}
	ops := build
	ops.RefMax = 10
	d := sparseGrid(t, 300, build, 1)
	rng := newRng(2)

	added := 0
	for i := 0; i < 300; i++ {
		tr := QueryTraced(d, d.RandomPeer(rng), bitpath.Random(rng, 5), rng)
		added += LearnFromTrace(d, ops, tr)
	}
	cfg := ops
	if added == 0 {
		t.Fatal("learning never added a reference")
	}
	// Everything learned must satisfy the Section 2 invariant.
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("learning broke the invariant: %v", err)
	}
	if maxRefsPerLevel(d) > cfg.RefMax {
		t.Errorf("learning exceeded refmax: %d", maxRefsPerLevel(d))
	}
}

func TestLearnFromFailedTraceIsNoOp(t *testing.T) {
	cfg := Config{MaxL: 3, RefMax: 4, RecMax: 2, RecFanout: 2}
	d := sparseGrid(t, 100, cfg, 3)
	rng := newRng(4)
	d.SetAllOnline(false)
	start := d.Peer(0)
	start.SetOnline(true)
	tr := QueryTraced(d, start, bitpath.Random(rng, 3), rng)
	if tr.Found {
		t.Skip("entry peer happened to cover the key")
	}
	if got := LearnFromTrace(d, cfg, tr); got != 0 {
		t.Errorf("failed trace taught %d refs", got)
	}
}

func TestWarmImprovesAvailability(t *testing.T) {
	// The ablation: a sparse grid (few refs per level) has poor search
	// success at 30% online; warming the routing tables with query
	// traffic must improve it substantially.
	build := Config{MaxL: 5, RefMax: 2, RecMax: 2, RecFanout: 2}
	ops := build
	ops.RefMax = 10

	measure := func(d *directory.Directory, seed int64) float64 {
		rng := newRng(seed)
		d.SampleOnline(rng, 0.3)
		defer d.SetAllOnline(true)
		succ := 0
		for i := 0; i < 600; i++ {
			start := d.RandomOnlinePeer(rng)
			if Query(d, start, bitpath.Random(rng, 5), rng).Found {
				succ++
			}
		}
		return float64(succ) / 600
	}

	d := sparseGrid(t, 300, build, 5)
	before := measure(d, 6)

	rng := newRng(7)
	learned, _ := Warm(d, ops, 2000, 5, rng)
	if learned == 0 {
		t.Fatal("warming learned nothing")
	}
	after := measure(d, 6) // same online sample seed for a fair comparison

	if after < before+0.1 {
		t.Errorf("warming did not help: %.3f → %.3f (learned %d refs)", before, after, learned)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
