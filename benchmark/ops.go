package main

import (
	"hash/fnv"
	"math"
	"sort"

	"pgrid/internal/addr"
)

// opKind is the type of one generated operation.
type opKind uint8

const (
	// Networked operations, issued through node.Client.
	opLookup opKind = iota
	opMajorityRead
	opPublish
	opPrefixSearch
	// Simulator operations, issued through the pgrid facade.
	opSearch
	opUpdate
	opMajorityLookup
	numOpKinds
)

var opKindNames = [numOpKinds]string{"lookup", "majority_read", "publish", "prefix_search",
	"search", "update", "majority_lookup"}

// op is one generated operation: what to do, on which catalog item, from
// which entry peers. Version is the version a write carries; it is 2 + the
// op's index, so a version read back names the op that wrote it.
type op struct {
	kind    opKind
	item    int
	entries [4]addr.Addr
	version uint64
}

// share is one operation type's part of a workload's mix.
type share struct {
	kind opKind
	frac float64
}

// opGen maps an op index to an op. It is a pure function of (seed, index):
// workers claim indexes from a shared counter, so the stream is the same
// whatever the interleaving, and a version read back can be checked against
// the op that must have written it.
type opGen struct {
	seed  uint64
	mix   []share
	cdf   []float64 // Zipf CDF over catalog ranks
	peers int       // entry peers are drawn from [0, peers)
}

// zipfS is the skew of the key popularity distribution.
const zipfS = 1.1

func newOpGen(seed int64, workload string, mix []share, items, peers int) *opGen {
	h := fnv.New64a()
	h.Write([]byte(workload))
	g := &opGen{seed: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64(), mix: mix, peers: peers,
		cdf: make([]float64, items)}
	sum := 0.0
	for r := range g.cdf {
		sum += 1 / math.Pow(float64(r+1), zipfS)
		g.cdf[r] = sum
	}
	for r := range g.cdf {
		g.cdf[r] /= sum
	}
	return g
}

// splitmix is a splitmix64 stream; the generator owns its randomness so
// that nothing under test can perturb the inputs.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// at returns op number k of the stream.
func (g *opGen) at(k int64) op {
	s := splitmix(g.seed ^ uint64(k+1)*0xd1342543de82ef95)
	o := op{version: uint64(k) + 2}
	u := s.float()
	o.kind = g.mix[len(g.mix)-1].kind
	for _, m := range g.mix {
		if u < m.frac {
			o.kind = m.kind
			break
		}
		u -= m.frac
	}
	o.item = sort.SearchFloat64s(g.cdf, s.float())
	if o.item >= len(g.cdf) {
		o.item = len(g.cdf) - 1
	}
	for i := range o.entries {
		o.entries[i] = addr.Addr(s.intn(g.peers))
	}
	return o
}

// wrote reports whether version v of item can only have come from a write
// of this stream: v names an op already issued that wrote that item.
func (g *opGen) wrote(v uint64, item int, issued int64) bool {
	k := int64(v) - 2
	if k < 0 || k >= issued {
		return false
	}
	o := g.at(k)
	return (o.kind == opPublish || o.kind == opUpdate) && o.item == item
}
