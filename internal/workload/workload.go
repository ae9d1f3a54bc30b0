// Package workload generates the synthetic data and behaviour the
// experiments run against: uniformly distributed binary keys (the paper's
// standing assumption), hashed file-sharing catalogs (the Gnutella
// motivation of Section 1), Zipf-skewed keys (the future-work extension of
// Section 6), and churn traces that generalize the static online
// probability of the system model.
package workload

import (
	"fmt"
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/store"
)

// UniformKeys draws n independent uniformly random keys of the given bit
// length.
func UniformKeys(rng *rand.Rand, n, bits int) []bitpath.Path {
	out := make([]bitpath.Path, n)
	for i := range out {
		out[i] = bitpath.Random(rng, bits)
	}
	return out
}

// ZipfKeys draws n keys of the given bit length whose integer values follow
// a Zipf distribution with exponent s ≥ 1 over the 2^bits key space —
// the skewed distribution the paper defers to future work. bits must be at
// most 62.
func ZipfKeys(rng *rand.Rand, n, bits int, s float64) []bitpath.Path {
	if bits < 1 || bits > 62 {
		panic(fmt.Sprintf("workload: ZipfKeys bits = %d out of range", bits))
	}
	if s <= 1 {
		s = 1.0000001 // rand.Zipf requires s > 1
	}
	z := rand.NewZipf(rng, s, 1, uint64(1)<<uint(bits)-1)
	out := make([]bitpath.Path, n)
	for i := range out {
		out[i] = bitpath.FromUint(z.Uint64(), bits)
	}
	return out
}

// HotspotKeys draws n keys of which fraction hotFraction fall uniformly
// under hotPrefix and the rest uniformly over the whole space — region
// skew, as opposed to ZipfKeys' value skew. Region skew is what adaptive
// splitting can flatten: the hot region subdivides while cold regions
// keep replicas. (Value skew — many items sharing one exact key — cannot
// be split away by any access structure.)
func HotspotKeys(rng *rand.Rand, n, bits int, hotPrefix bitpath.Path, hotFraction float64) []bitpath.Path {
	if hotPrefix.Len() >= bits {
		panic(fmt.Sprintf("workload: HotspotKeys prefix %q too long for %d bits", hotPrefix, bits))
	}
	out := make([]bitpath.Path, n)
	for i := range out {
		if rng.Float64() < hotFraction {
			out[i] = hotPrefix + bitpath.Random(rng, bits-hotPrefix.Len())
		} else {
			out[i] = bitpath.Random(rng, bits)
		}
	}
	return out
}

// Catalog is a synthetic file-sharing catalog: named items spread over
// hosting peers, with index keys derived from the names.
type Catalog struct {
	Entries []store.Entry
}

// FileCatalog builds a catalog of n files named like MP3 shares, hosted by
// uniformly random peers out of nPeers, with keys hashed to the given bit
// length (uniform by construction, matching the paper's assumption).
func FileCatalog(rng *rand.Rand, n, nPeers, bits int) Catalog {
	c := Catalog{Entries: make([]store.Entry, n)}
	for i := range c.Entries {
		name := FileName(rng, i)
		c.Entries[i] = store.Entry{
			Key:     bitpath.HashKey(name, bits),
			Name:    name,
			Holder:  addr.Addr(rng.Intn(nPeers)),
			Version: 1,
		}
	}
	return c
}

var (
	artists = []string{"aurora", "basement", "cassette", "delta", "echoes",
		"fjord", "glasshouse", "horizon", "indigo", "juniper", "krypton",
		"lighthouse", "monsoon", "nebula", "orchid", "paperboats"}
	tracks = []string{"midnight", "static", "gravity", "harbor", "neon",
		"wildfire", "undertow", "satellites", "comet", "driftwood",
		"polaroid", "violet", "winterlong", "afterglow", "bloom", "circuit"}
)

// FileName fabricates a plausible shared-file name; the index i keeps
// names unique within a catalog.
func FileName(rng *rand.Rand, i int) string {
	return fmt.Sprintf("%s-%s-%02d.mp3",
		artists[rng.Intn(len(artists))], tracks[rng.Intn(len(tracks))], i)
}

// Churn is a two-state (online/offline) Markov session model per peer. It
// generalizes the paper's static online probability: at every step an
// online peer goes offline with probability POffline and an offline peer
// comes back with probability POnline. The stationary online fraction is
// POnline / (POnline + POffline).
type Churn struct {
	POnline  float64 // offline → online transition probability per step
	POffline float64 // online → offline transition probability per step
}

// ChurnForOnlineFraction builds a Churn model with the given stationary
// online fraction p and mean online session length (in steps).
func ChurnForOnlineFraction(p float64, meanOnlineSteps float64) Churn {
	if p <= 0 || p >= 1 || meanOnlineSteps < 1 {
		panic(fmt.Sprintf("workload: ChurnForOnlineFraction(%v, %v) out of range", p, meanOnlineSteps))
	}
	pOff := 1 / meanOnlineSteps
	// p = pOn/(pOn+pOff)  ⇒  pOn = p·pOff/(1-p)
	pOn := p * pOff / (1 - p)
	return Churn{POnline: pOn, POffline: pOff}
}

// Step advances one peer's state and returns the new state.
func (c Churn) Step(rng *rand.Rand, online bool) bool {
	if online {
		return rng.Float64() >= c.POffline
	}
	return rng.Float64() < c.POnline
}
