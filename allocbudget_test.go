package pgrid

import (
	"fmt"
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/raceflag"
)

// TestAllocBudgetGridOps: the facade's reads and updates — the calls the
// Sec. 5.2 benchmark makes — allocate nothing on a built grid, with everyone
// online and with 30 % online, as the experiment runs it.
func TestAllocBudgetGridOps(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector instruments allocations")
	}
	g, err := Build(Options{Peers: 256, MaxPathLen: 5, RefMax: 4, RecMax: 2, RecFanout: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	entries := make([]Entry, 32)
	for i := range entries {
		entries[i] = Entry{Key: string(bitpath.Random(rng, 8)), Name: fmt.Sprintf("f%d", i), Holder: i, Version: 1}
	}
	if err := g.SeedIndex(entries...); err != nil {
		t.Fatal(err)
	}
	for _, online := range []float64{1, 0.3} {
		g.SetOnlineFraction(online)
		i, version := 0, 1
		next := func() Entry {
			i++
			return entries[i%len(entries)]
		}
		for _, tc := range []struct {
			name string
			op   func()
		}{
			{"Search", func() { g.Search(next().Key) }},
			{"Update", func() {
				e := next()
				version++
				e.Version = uint64(version)
				g.Update(e, 2, 2)
			}},
			{"MajorityLookup", func() { e := next(); g.MajorityLookup(e.Key, e.Name, 3) }},
		} {
			if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
				t.Errorf("online %v: Grid.%s allocates %v times, want 0", online, tc.name, allocs)
			}
		}
	}
}
