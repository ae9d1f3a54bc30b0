// Package addr defines peer addresses and address-set utilities shared by
// the storage, peer and routing layers.
//
// The paper models a community of peers P with a unique address function
// addr : P → ADDR and its inverse peer(r). In the simulator an address is a
// dense small integer, which makes reference sets compact and lets the
// directory resolve peer(r) with an array lookup. The networked runtime maps
// these logical addresses to transport endpoints.
package addr

import (
	"fmt"
	"math/rand"
	"sort"
)

// Addr is a logical peer address. Valid addresses are non-negative.
type Addr int32

// Nil is the absent address.
const Nil Addr = -1

// Valid reports whether a is a usable address.
func (a Addr) Valid() bool { return a >= 0 }

// String renders the address for logs.
func (a Addr) String() string {
	if a == Nil {
		return "addr(nil)"
	}
	return fmt.Sprintf("addr(%d)", int32(a))
}

// Set is an ordered collection of distinct addresses. The zero value is an
// empty set ready to use. Sets are small (bounded by refmax in P-Grid), so a
// slice with linear membership tests beats a map on both space and time.
type Set struct {
	addrs []Addr
}

// NewSet returns a set containing the given addresses in first-occurrence
// order, deduplicated and without Nil. It costs time linear in len(addrs): a
// short list is deduplicated by looking through the set, a longer one — a
// reference level read off the network may hold anything that fits a frame —
// through a map.
func NewSet(addrs ...Addr) Set {
	var s Set
	if len(addrs) <= newSetScan {
		for _, a := range addrs {
			s.Add(a)
		}
		return s
	}
	seen := make(map[Addr]struct{}, len(addrs))
	s.addrs = make([]Addr, 0, len(addrs))
	for _, a := range addrs {
		if _, dup := seen[a]; dup || a == Nil {
			continue
		}
		seen[a] = struct{}{}
		s.addrs = append(s.addrs, a)
	}
	return s
}

// newSetScan is the longest list NewSet deduplicates by scanning: about
// refmax, where a scan's ≤ 500 comparisons still beat making a map.
const newSetScan = 32

// Len returns the number of addresses in the set.
func (s Set) Len() int { return len(s.addrs) }

// Contains reports whether a is in the set.
func (s Set) Contains(a Addr) bool {
	for _, x := range s.addrs {
		if x == a {
			return true
		}
	}
	return false
}

// Add inserts a if absent and reports whether it was inserted.
// Nil addresses are ignored.
func (s *Set) Add(a Addr) bool {
	if a == Nil || s.Contains(a) {
		return false
	}
	s.addrs = append(s.addrs, a)
	return true
}

// Remove deletes a if present and reports whether it was present.
func (s *Set) Remove(a Addr) bool {
	for i, x := range s.addrs {
		if x == a {
			s.addrs = append(s.addrs[:i], s.addrs[i+1:]...)
			return true
		}
	}
	return false
}

// Slice returns a copy of the addresses in insertion order.
func (s Set) Slice() []Addr {
	out := make([]Addr, len(s.addrs))
	copy(out, s.addrs)
	return out
}

// AppendTo appends the addresses in insertion order to dst.
func (s Set) AppendTo(dst []Addr) []Addr { return append(dst, s.addrs...) }

// Sorted returns a copy of the addresses in ascending order.
func (s Set) Sorted() []Addr {
	out := s.Slice()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	return Set{addrs: s.Slice()}
}

// CloneInto is Clone with the copy made in buf's capacity when it fits, at
// no allocation then; the caller gives buf up to the set. A nil buf is Clone.
func (s Set) CloneInto(buf []Addr) Set {
	return Set{addrs: append(buf[:0], s.addrs...)}
}

// CopyFrom makes s hold t's addresses in t's order, in s's own storage when
// it has the capacity (no allocation then). t may be a view of s itself.
func (s *Set) CopyFrom(t Set) { s.addrs = append(s.addrs[:0], t.addrs...) }

// Union returns a new set containing all addresses of s and t.
func Union(s, t Set) Set { return UnionInto(nil, s, t) }

// UnionInto is Union built in buf's capacity when the result fits, at no
// allocation then: s's addresses in order, then t's that s lacks. The caller
// gives buf up to the set; buf must not overlap t's storage.
func UnionInto(buf []Addr, s, t Set) Set {
	var none Marks
	return none.UnionInto(buf, s, t)
}

// Marks remembers which addresses below a fixed bound a union has taken, one
// stamped word per address, so that pooling two sets costs their lengths and
// not the product. It suits an owner whose addresses are dense small
// integers — the simulator's directory — and who unions from one goroutine;
// an address at or above the bound is found by looking through the set, so
// the zero Marks is the plain union and any bound gives the same result.
type Marks struct {
	seen  []uint32 // seen[a] == epoch: a is in the union being built
	epoch uint32
}

// NewMarks returns marks for the addresses below n.
func NewMarks(n int) Marks { return Marks{seen: make([]uint32, n)} }

// UnionInto is the package's UnionInto, with membership of the addresses
// below the bound kept in m.
func (m *Marks) UnionInto(buf []Addr, s, t Set) Set {
	if m.epoch++; m.epoch == 0 { // wrapped: stamps of four billion unions ago would read as fresh
		clear(m.seen)
		m.epoch = 1
	}
	u := s.CloneInto(buf)
	for _, a := range s.addrs {
		if uint(a) < uint(len(m.seen)) {
			m.seen[a] = m.epoch
		}
	}
	for _, a := range t.addrs {
		if uint(a) >= uint(len(m.seen)) {
			u.Add(a)
		} else if m.seen[a] != m.epoch {
			m.seen[a] = m.epoch
			u.addrs = append(u.addrs, a)
		}
	}
	return u
}

// Shuffled returns the addresses in uniformly random order.
func (s Set) Shuffled(rng *rand.Rand) []Addr { return s.ShuffledInto(nil, rng) }

// ShuffledInto is Shuffled with the copy made in buf's capacity when it
// fits. The draws are one rng.Shuffle over Len() elements whatever buf is,
// so a seeded run takes the same course with or without a buffer. buf may
// be s's own storage: the set is then shuffled in place.
func (s Set) ShuffledInto(buf []Addr, rng *rand.Rand) []Addr { return ShuffledInto(buf, s.addrs, rng) }

// ShuffledInto is Set.ShuffledInto for a list that is not a set — a reference
// level as a peer sent it: the same one rng.Shuffle over len(addrs), so for a
// list without duplicates or Nil the draws and the order are the set's.
func ShuffledInto(buf, addrs []Addr, rng *rand.Rand) []Addr {
	out := append(buf[:0], addrs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// RandomSubset returns min(k, Len()) distinct addresses drawn uniformly at
// random, matching the paper's random_select(k, refs).
func (s Set) RandomSubset(rng *rand.Rand, k int) Set { return s.RandomSubsetInto(nil, rng, k) }

// RandomSubsetInto is RandomSubset built in buf's capacity, on the terms of
// ShuffledInto: the full shuffle is drawn even when k is small, which is
// what keeps the run's course.
func (s Set) RandomSubsetInto(buf []Addr, rng *rand.Rand, k int) Set {
	if k < 0 {
		k = 0
	}
	out := s.ShuffledInto(buf, rng)
	if k < len(out) {
		out = out[:k]
	}
	return Set{addrs: out}
}

// PopRandom removes and returns a uniformly random address, matching the
// paper's destructive random_select(refs) used in the search loop.
// It returns Nil when the set is empty.
func (s *Set) PopRandom(rng *rand.Rand) Addr {
	if len(s.addrs) == 0 {
		return Nil
	}
	i := rng.Intn(len(s.addrs))
	a := s.addrs[i]
	s.addrs[i] = s.addrs[len(s.addrs)-1]
	s.addrs = s.addrs[:len(s.addrs)-1]
	return a
}

// String renders the set for logs.
func (s Set) String() string {
	return fmt.Sprintf("%v", s.Sorted())
}
