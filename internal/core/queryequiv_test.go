package core_test

// External test package: the fixtures here are built with internal/sim,
// which itself imports internal/core, so they cannot live in package
// core without a cycle.

import (
	"math/rand"
	"testing"

	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/sim"
)

// TestQueryTracedEquivalence pins that the span collector does not
// perturb the walk: Query (nil collector) and QueryTraced run the one
// Fig. 2 search and consume the RNG identically, so for the same seed and
// directory they must report the same Found/Peer/Messages/Backtracks —
// tracing observes the route, it never changes it. Checked across several communities, key
// lengths, and churn levels (offline peers force backtracking, the
// interesting path).
func TestQueryTracedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		maxl   int
		refmax int
		online float64 // fraction of peers left online
		seed   int64
	}{
		{"small-all-online", 32, 5, 2, 1.0, 11},
		{"mid-all-online", 96, 6, 3, 1.0, 23},
		{"churny", 96, 6, 3, 0.5, 37},
		{"heavy-churn", 64, 6, 4, 0.3, 53},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := sim.Build(sim.Options{
				N:      tc.n,
				Config: core.Config{MaxL: tc.maxl, RefMax: tc.refmax, RecMax: 2, RecFanout: 2},
				Seed:   tc.seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			d := res.Dir
			setup := rand.New(rand.NewSource(tc.seed + 1))
			if tc.online < 1 {
				d.SampleOnline(setup, tc.online)
			}

			for trial := 0; trial < 200; trial++ {
				key := bitpath.Random(setup, tc.maxl-1)
				start := d.RandomPeer(setup)
				seed := setup.Int63()

				res1 := core.Query(d, start, key, rand.New(rand.NewSource(seed)))
				tr := core.QueryTraced(d, start, key, rand.New(rand.NewSource(seed)))
				res2 := core.QueryResult{Found: tr.Found, Messages: tr.Messages, Backtracks: tr.Backtracks}
				if tr.Found {
					res2.Peer = tr.Spans[len(tr.Spans)-1].Peer
				}

				if res1 != res2 {
					t.Fatalf("trial %d key %s start %v: Query=%+v QueryTraced=%+v",
						trial, key, start.Addr(), res1, res2)
				}
				// The trace itself must be consistent with the result it
				// reports: every successful contact is one recorded span,
				// numbered in visit order under the previous visit.
				if len(tr.Spans) != res2.Messages+1 {
					t.Fatalf("trial %d: %d spans for %d messages (%s)",
						trial, len(tr.Spans), res2.Messages, tr)
				}
				for i, s := range tr.Spans {
					if s.ID != uint64(i+1) || s.Parent != uint64(i) {
						t.Fatalf("trial %d: span %d has id %d parent %d", trial, i, s.ID, s.Parent)
					}
				}
			}
		})
	}
}
