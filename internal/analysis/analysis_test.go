package analysis

import (
	"errors"
	"fmt"
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

// Size derives a sizing plan: it splits the peer's index budget between
// leaf references and routing references exactly as the Section 4 example
// does (reserving k·refmax slots for routing and the rest for the leaf
// index), iterating because k itself depends on the split.
func Size(p Params) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("analysis: %w", err)
	}
	iPeer := p.IPeer()
	// Start from the optimistic assumption that the whole budget is leaf
	// index, then give up routing slots until the split is consistent.
	iLeaf := iPeer
	var k int
	for i := 0; i < 64; i++ {
		k = KeyLength(p.DGlobal, iLeaf)
		next := iPeer - float64(k*p.RefMax)
		if next <= 0 {
			return Plan{}, fmt.Errorf("analysis: index budget %g too small for depth %d with refmax %d",
				iPeer, k, p.RefMax)
		}
		if next == iLeaf {
			break
		}
		iLeaf = next
	}
	return Plan{
		ILeaf:        iLeaf,
		KeyLength:    k,
		MinPeers:     p.MinPeers(iLeaf),
		Success:      SuccessProbability(p.OnlineProb, p.RefMax, k),
		StorageBytes: (iLeaf + float64(k*p.RefMax)) * p.RefBytes,
	}, nil
}

// Params holds the deployment parameters of the Section 4 model.
type Params struct {
	// DGlobal is the total number of data objects in the network
	// (d_global = N · d_peer).
	DGlobal float64
	// RefBytes is the storage cost r of one reference in bytes.
	RefBytes float64
	// IndexBytes is the space s_peer each peer donates to indexing.
	IndexBytes float64
	// OnlineProb is the probability p that a peer is online.
	OnlineProb float64
	// RefMax is the reference multiplicity refmax.
	RefMax int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	var errs []error
	if p.DGlobal <= 0 {
		errs = append(errs, fmt.Errorf("DGlobal = %g, must be > 0", p.DGlobal))
	}
	if p.RefBytes <= 0 {
		errs = append(errs, fmt.Errorf("RefBytes = %g, must be > 0", p.RefBytes))
	}
	if p.IndexBytes <= 0 {
		errs = append(errs, fmt.Errorf("IndexBytes = %g, must be > 0", p.IndexBytes))
	}
	if p.OnlineProb <= 0 || p.OnlineProb > 1 {
		errs = append(errs, fmt.Errorf("OnlineProb = %g, must be in (0,1]", p.OnlineProb))
	}
	if p.RefMax < 1 {
		errs = append(errs, fmt.Errorf("RefMax = %d, must be >= 1", p.RefMax))
	}
	return errors.Join(errs...)
}

// IPeer returns i_peer = s_peer / r, the number of references a peer can
// store in its donated index space.
func (p Params) IPeer() float64 { return p.IndexBytes / p.RefBytes }

// KeyLength returns the minimal key length k satisfying inequality (1),
// k ≥ log2(d_global / i_leaf), for a given leaf index capacity.
func KeyLength(dGlobal, iLeaf float64) int {
	if dGlobal <= 0 || iLeaf <= 0 {
		panic(fmt.Sprintf("analysis: KeyLength(%g, %g) needs positive arguments", dGlobal, iLeaf))
	}
	k := math.Log2(dGlobal / iLeaf)
	if k <= 0 {
		return 0
	}
	return int(math.Ceil(k - 1e-9))
}

// MinPeers returns the smallest community size N satisfying inequality (2),
// (d_global / i_leaf) · refmax ≤ N: enough peers that every leaf interval
// is supported by at least refmax replicas.
func (p Params) MinPeers(iLeaf float64) int {
	return int(math.Ceil(p.DGlobal / iLeaf * float64(p.RefMax)))
}

// Plan is a feasible P-Grid sizing derived from Params.
type Plan struct {
	// ILeaf is the number of leaf data references per peer.
	ILeaf float64
	// KeyLength is the grid depth k.
	KeyLength int
	// MinPeers is the minimal community size N.
	MinPeers int
	// Success is the search success probability at these parameters.
	Success float64
	// StorageBytes is the per-peer index storage actually used.
	StorageBytes float64
}
