package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKeyLength(t *testing.T) {
	cases := []struct {
		d, leaf float64
		want    int
	}{
		{1024, 1, 10},
		{1000, 1, 10},   // ceil(log2 1000) = 10
		{1e7, 9800, 10}, // the paper's example
		{8, 8, 0},
		{4, 8, 0}, // more capacity than data
	}
	for _, c := range cases {
		if got := KeyLength(c.d, c.leaf); got != c.want {
			t.Errorf("KeyLength(%g,%g) = %d, want %d", c.d, c.leaf, got, c.want)
		}
	}
}

func TestKeyLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KeyLength(0, 1)
}

func TestSuccessProbability(t *testing.T) {
	// refmax=1: probability is p^k.
	if got, want := SuccessProbability(0.5, 1, 3), 0.125; math.Abs(got-want) > 1e-12 {
		t.Errorf("p^k = %v, want %v", got, want)
	}
	// Always-online peers always succeed.
	if got := SuccessProbability(1, 1, 10); got != 1 {
		t.Errorf("p=1 gives %v", got)
	}
	// The paper's example: p=0.3, refmax=20, k=10 ⇒ > 99 %.
	got := SuccessProbability(0.3, 20, 10)
	if got <= 0.99 || got >= 1 {
		t.Errorf("paper example success = %v, want in (0.99, 1)", got)
	}
}

func TestStorageOKAndMinPeers(t *testing.T) {
	p := GnutellaExample()
	if !p.StorageOK(9800, 10) {
		t.Error("paper split must fit the budget exactly")
	}
	if p.StorageOK(9801, 10) {
		t.Error("overfull split accepted")
	}
	if got := p.MinPeers(9800); got != 20409 {
		t.Errorf("MinPeers = %d, want 20409 (the paper's community size)", got)
	}
}

func TestSizeReproducesPaperExample(t *testing.T) {
	plan, err := Size(GnutellaExample())
	if err != nil {
		t.Fatal(err)
	}
	if plan.KeyLength != 10 {
		t.Errorf("k = %d, want 10", plan.KeyLength)
	}
	if plan.ILeaf != 9800 {
		t.Errorf("i_leaf = %g, want 9800", plan.ILeaf)
	}
	if plan.MinPeers != 20409 {
		t.Errorf("MinPeers = %d, want 20409", plan.MinPeers)
	}
	if plan.Success <= 0.99 {
		t.Errorf("success = %v, want > 0.99", plan.Success)
	}
	if plan.StorageBytes != 1e5 {
		t.Errorf("storage = %g, want exactly the donated 1e5 bytes", plan.StorageBytes)
	}
}

func TestSizeRejectsTinyBudget(t *testing.T) {
	p := GnutellaExample()
	p.IndexBytes = 100 // 10 references total: cannot hold 10 levels × 20 refs
	if _, err := Size(p); err == nil {
		t.Error("expected error for infeasible budget")
	}
}

func TestValidate(t *testing.T) {
	good := GnutellaExample()
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bads := []Params{
		{DGlobal: 0, RefBytes: 1, IndexBytes: 1, OnlineProb: 0.5, RefMax: 1},
		{DGlobal: 1, RefBytes: 0, IndexBytes: 1, OnlineProb: 0.5, RefMax: 1},
		{DGlobal: 1, RefBytes: 1, IndexBytes: 0, OnlineProb: 0.5, RefMax: 1},
		{DGlobal: 1, RefBytes: 1, IndexBytes: 1, OnlineProb: 0, RefMax: 1},
		{DGlobal: 1, RefBytes: 1, IndexBytes: 1, OnlineProb: 1.5, RefMax: 1},
		{DGlobal: 1, RefBytes: 1, IndexBytes: 1, OnlineProb: 0.5, RefMax: 0},
	}
	for i, b := range bads {
		if err := b.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestPropSuccessProbabilityMonotone(t *testing.T) {
	// More references and higher online probability never hurt; deeper
	// grids never help.
	f := func(p10 uint8, refmax, k uint8) bool {
		p := float64(p10%9+1) / 10.0 // 0.1 … 0.9
		r := int(refmax%5) + 1
		depth := int(k % 12)
		s := SuccessProbability(p, r, depth)
		if s < 0 || s > 1 {
			return false
		}
		return SuccessProbability(p, r+1, depth) >= s-1e-12 &&
			SuccessProbability(math.Min(p+0.05, 1), r, depth) >= s-1e-12 &&
			SuccessProbability(p, r, depth+1) <= s+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSizeInternallyConsistent(t *testing.T) {
	f := func(dExp, refmax uint8) bool {
		p := Params{
			DGlobal:    math.Pow(10, float64(dExp%5)+3), // 1e3 … 1e7
			RefBytes:   10,
			IndexBytes: 1e5,
			OnlineProb: 0.3,
			RefMax:     int(refmax%10) + 1,
		}
		plan, err := Size(p)
		if err != nil {
			return true // infeasible combinations are fine
		}
		// The plan must satisfy the paper's inequalities.
		return p.StorageOK(plan.ILeaf, plan.KeyLength) &&
			KeyLength(p.DGlobal, plan.ILeaf) <= plan.KeyLength &&
			float64(plan.MinPeers) >= p.DGlobal/plan.ILeaf*float64(p.RefMax)-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// StorageOK reports whether i_leaf + k·refmax ≤ i_peer, the per-peer
// storage constraint of Section 4.
func (p Params) StorageOK(iLeaf float64, k int) bool {
	return iLeaf+float64(k*p.RefMax) <= p.IPeer()+1e-9
}

// GnutellaExample returns the parameters of the worked example in
// Section 4: 10^7 data objects, 10-byte references, 10^5 bytes of index
// space per peer, 30 % online probability, refmax 20. The paper derives
// k = 10, ≥ 99 % search success, and a minimal community of 20 409 peers.
func GnutellaExample() Params {
	return Params{
		DGlobal:    1e7,
		RefBytes:   10,
		IndexBytes: 1e5,
		OnlineProb: 0.3,
		RefMax:     20,
	}
}
