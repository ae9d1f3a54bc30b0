package pgrid

// Integration tests: full build → publish → churn → update → read cycles
// across the public API, cross-checked against the global oracle. These
// exercise the same paths a downstream application would.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/workload"
)

func TestIntegrationBuildPublishSearchLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Sequential build: the concurrent engine's grid depends on goroutine
	// scheduling, and the thresholds below are specific to one grid. The
	// concurrent engine has its own tests in internal/sim.
	opts := Options{Peers: 800, MaxPathLen: 6, RefMax: 8, RecMax: 2, RecFanout: 2, Threshold: 0.99, Seed: 21}
	g, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}

	// The converged structure must cover the whole key space.
	for v := uint64(0); v < 1<<6; v++ {
		key := bitpath.FromUint(v, 6)
		if len(g.Directory().Covering(key)) == 0 {
			t.Fatalf("key %s has no covering peer", key)
		}
	}

	// Publish a catalog through the protocol.
	rng := rand.New(rand.NewSource(22))
	catalog := workload.FileCatalog(rng, 300, opts.Peers, opts.MaxPathLen)
	for _, e := range catalog.Entries {
		if _, err := g.Publish(Entry{Key: string(e.Key), Name: e.Name, Holder: int(e.Holder)}); err != nil {
			t.Fatalf("publish %q: %v", e.Name, err)
		}
	}

	// Single-replica reads: a publish is one breadth-first pass, so a
	// lookup can land on a replica the publish missed — rare with everyone
	// online, and always recoverable with a majority read.
	misses := 0
	for _, e := range catalog.Entries {
		got, _, err := g.Lookup(string(e.Key), e.Name)
		if err != nil {
			misses++
			got, _, err = g.MajorityLookup(string(e.Key), e.Name, 2)
			if err != nil {
				t.Fatalf("majority lookup %q: %v", e.Name, err)
			}
		}
		if got.Holder != int(e.Holder) {
			t.Fatalf("lookup %q returned holder %d, want %d", e.Name, got.Holder, e.Holder)
		}
	}
	if float64(misses) > 0.05*float64(len(catalog.Entries)) {
		t.Fatalf("%d/%d single-replica reads missed with everyone online", misses, len(catalog.Entries))
	}

	// At 30 % availability, lookups still mostly succeed.
	g.SetOnlineFraction(0.3)
	ok := 0
	for _, e := range catalog.Entries {
		if _, _, err := g.Lookup(string(e.Key), e.Name); err == nil {
			ok++
		}
	}
	if frac := float64(ok) / float64(len(catalog.Entries)); frac < 0.80 {
		t.Fatalf("only %.2f of lookups succeeded at 30%% online", frac)
	}
	g.SetOnlineFraction(1)
}

func TestIntegrationUpdateThenMajorityReadUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Sequential build, for the reason given in the lifecycle test above.
	g, err := Build(Options{Peers: 1000, MaxPathLen: 6, RefMax: 10, RecMax: 2, RecFanout: 2, Threshold: 0.99, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = HashKey(fmt.Sprintf("doc-%d", i), 5)
		if err := g.SeedIndex(Entry{Key: keys[i], Name: "doc", Holder: 1, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}

	g.SetOnlineFraction(0.3)
	for i, k := range keys {
		if _, err := g.Update(Entry{Key: k, Name: "doc", Holder: 2, Version: 2}, 3, 2); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}

	fresh := 0
	for _, k := range keys {
		e, _, err := g.MajorityLookup(k, "doc", 3)
		if err != nil {
			continue
		}
		if e.Version == 2 {
			fresh++
		}
	}
	if fresh < 18 {
		t.Fatalf("majority reads returned fresh value for only %d/20 keys", fresh)
	}

	// Sessions churn; reads keep working.
	for epoch := 0; epoch < 10; epoch++ {
		g.ChurnStep(0.3, 40)
	}
	succ := 0
	for _, k := range keys {
		if _, _, err := g.MajorityLookup(k, "doc", 3); err == nil {
			succ++
		}
	}
	if succ < 18 {
		t.Fatalf("after churn, majority reads succeeded for only %d/20 keys", succ)
	}
}

func TestIntegrationSearchTerminatesAtOracleCoveringPeer(t *testing.T) {
	g, err := Build(Options{Peers: 300, MaxPathLen: 5, RefMax: 5, RecMax: 2, RecFanout: 2, Threshold: 0.99, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 200; i++ {
		key := bitpath.Random(rng, 5)
		res, err := g.Search(string(key))
		if err != nil {
			t.Fatalf("search %s: %v", key, err)
		}
		covering := g.Directory().Covering(key)
		found := false
		for _, a := range covering {
			if int(a) == res.Peer {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("search %s ended at peer %d, not in oracle covering set %v", key, res.Peer, covering)
		}
	}
}

func TestIntegrationStaleUpdatesNeverWinMajority(t *testing.T) {
	g := BuildIdeal(512, 5, 8, 26)
	key := HashKey("contested", 5)
	if err := g.SeedIndex(Entry{Key: key, Name: "contested", Holder: 1, Version: 10}); err != nil {
		t.Fatal(err)
	}
	// A stale writer pushes version 3 aggressively; version monotonicity
	// must protect every replica.
	for i := 0; i < 5; i++ {
		g.Update(Entry{Key: key, Name: "contested", Holder: 9, Version: 3}, 8, 3)
	}
	e, _, err := g.MajorityLookup(key, "contested", 3)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 10 || e.Holder != 1 {
		t.Fatalf("stale write surfaced: %+v", e)
	}
}

func TestIntegrationErrorsAreTyped(t *testing.T) {
	g := BuildIdeal(64, 3, 4, 27)
	if _, _, err := g.Lookup(HashKey("nope", 3), "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing item err = %v", err)
	}
	g.SetOnlineFraction(0)
	if _, err := g.Search("010"); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dead community err = %v", err)
	}
}
