package analysis

import (
	"fmt"
	"math"
	"testing"
)

func TestCompareCostsShape(t *testing.T) {
	rows, err := CompareCosts([]int{1000, 2000, 4000, 8000}, 10, 100, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	g := Growth(rows)
	if g.Scale != 8 {
		t.Fatalf("scale = %v", g.Scale)
	}
	// Linear quantities track the scale exactly.
	if g.ServerStorage != 8 || g.ServerLoad != 8 || g.FloodMsgs != 8 {
		t.Errorf("linear growths: %+v", g)
	}
	// Logarithmic quantities grow far slower than the scale.
	if g.PGridStorage > 2 || g.PGridQueryMsgs > 2 {
		t.Errorf("log growths too fast: %+v", g)
	}
	if g.PGridStorage < 1 || g.PGridQueryMsgs < 1 {
		t.Errorf("log growths shrank: %+v", g)
	}
}

func TestCompareCostsMatchesPaperExample(t *testing.T) {
	// At the Section 4 example parameters (D=1e7, iLeaf=9800, refmax=20)
	// the routing table is k·refmax = 200 references.
	rows, err := CompareCosts([]int{20409}, 1e7/20409, 9800, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].PGridStorage != 200 {
		t.Errorf("routing table = %v refs, want 200", rows[0].PGridStorage)
	}
	if rows[0].ServerStorage < 0.99e7 {
		t.Errorf("server storage = %v", rows[0].ServerStorage)
	}
}

func TestCompareCostsValidation(t *testing.T) {
	if _, err := CompareCosts([]int{10}, 0, 1, 1, 1); err == nil {
		t.Error("bad itemsPerPeer accepted")
	}
	if _, err := CompareCosts([]int{10}, 1, 0, 1, 1); err == nil {
		t.Error("bad iLeaf accepted")
	}
	if _, err := CompareCosts([]int{10}, 1, 1, 0, 1); err == nil {
		t.Error("bad refmax accepted")
	}
	if _, err := CompareCosts([]int{10}, 1, 1, 1, 0); err == nil {
		t.Error("bad degree accepted")
	}
}

func TestGrowthPanicsOnShortInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Growth([]CostRow{{N: 1}})
}

// The Section 6 closed-form cost comparison: "Assume D is the number of
// data items and N the number of peers. For storage we consider the number
// of references to be stored at the nodes ignoring local indexing cost.
// For querying we consider the number of messages exchanged assuming that
// each node creates a constant number of queries per time unit."
//
// These test-side functions give the model's numbers, the shape
// internal/experiments.Sec6 measures on live implementations of all three
// architectures.

// CostRow is the model's prediction at one scale.
type CostRow struct {
	N int // peers / clients
	D int // data items

	// PGridStorage is the per-peer routing-table size k·refmax = O(log D).
	PGridStorage float64
	// PGridQueryMsgs is the expected per-query message count ≈ depth/2
	// (each search resolves a uniformly random number of leading bits at
	// its entry peer) = O(log N).
	PGridQueryMsgs float64

	// ServerStorage is the central server's index size = D.
	ServerStorage float64
	// ServerLoad is the queries the server handles per time unit when each
	// of N clients issues one = N.
	ServerLoad float64

	// FloodMsgs is the flooding cost to reach the whole community over a
	// degree-d random overlay ≈ d·N edges crossed = O(N).
	FloodMsgs float64
}

// CompareCosts evaluates the model for a scale sweep. iLeaf and refmax
// parameterize the P-Grid (depth k = log2(D/iLeaf)); degree parameterizes
// the flooding overlay.
func CompareCosts(sizes []int, itemsPerPeer, iLeaf float64, refmax, degree int) ([]CostRow, error) {
	if iLeaf <= 0 || itemsPerPeer <= 0 || refmax < 1 || degree < 1 {
		return nil, fmt.Errorf("analysis: CompareCosts: bad parameters")
	}
	out := make([]CostRow, 0, len(sizes))
	for _, n := range sizes {
		d := float64(n) * itemsPerPeer
		k := float64(KeyLength(d, iLeaf))
		out = append(out, CostRow{
			N:              n,
			D:              int(d),
			PGridStorage:   k * float64(refmax),
			PGridQueryMsgs: math.Max(k/2, 0),
			ServerStorage:  d,
			ServerLoad:     float64(n),
			FloodMsgs:      float64(degree) * float64(n),
		})
	}
	return out, nil
}

// GrowthFactors summarizes how each cost grows from the first to the last
// row — the shape the Section 6 table asserts (P-Grid ≈ flat/logarithmic,
// server and flooding linear).
type GrowthFactors struct {
	Scale          float64 // N_last / N_first
	PGridStorage   float64
	PGridQueryMsgs float64
	ServerStorage  float64
	ServerLoad     float64
	FloodMsgs      float64
}

// Growth computes the growth factors over a sweep. It panics on fewer than
// two rows.
func Growth(rows []CostRow) GrowthFactors {
	if len(rows) < 2 {
		panic("analysis: Growth needs at least two rows")
	}
	f, l := rows[0], rows[len(rows)-1]
	div := func(a, b float64) float64 {
		if b == 0 {
			return math.Inf(1)
		}
		return a / b
	}
	return GrowthFactors{
		Scale:          div(float64(l.N), float64(f.N)),
		PGridStorage:   div(l.PGridStorage, f.PGridStorage),
		PGridQueryMsgs: div(l.PGridQueryMsgs, f.PGridQueryMsgs),
		ServerStorage:  div(l.ServerStorage, f.ServerStorage),
		ServerLoad:     div(l.ServerLoad, f.ServerLoad),
		FloodMsgs:      div(l.FloodMsgs, f.FloodMsgs),
	}
}
