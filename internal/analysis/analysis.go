// Package analysis implements the closed-form model of Section 4 of the
// P-Grid paper — the sizing equations (1)–(2), the search success
// probability (3), the Gnutella sizing example — and the Section 6
// asymptotic cost comparison between a P-Grid and centralized replicated
// servers. The simulator validates these formulas; the formulas size real
// deployments.
package analysis

import (
	"errors"
	"fmt"
	"math"
)

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

// SuccessProbability returns equation (3): the probability that a search
// over a depth-k grid succeeds when every peer is online with probability
// p and refmax alternative references exist per level,
//
//	(1 - (1-p)^refmax)^k.
func SuccessProbability(onlineProb float64, refmax, k int) float64 {
	perLevel := 1 - math.Pow(1-onlineProb, float64(refmax))
	return math.Pow(perLevel, float64(k))
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
