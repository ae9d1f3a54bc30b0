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

// NewSet returns a set containing the given addresses, deduplicated.
func NewSet(addrs ...Addr) Set {
	var s Set
	for _, a := range addrs {
		s.Add(a)
	}
	return s
}

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

// Union returns a new set containing all addresses of s and t.
func Union(s, t Set) Set {
	u := s.Clone()
	for _, a := range t.addrs {
		u.Add(a)
	}
	return u
}

// Shuffled returns the addresses in uniformly random order.
func (s Set) Shuffled(rng *rand.Rand) []Addr {
	out := s.Slice()
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// RandomSubset returns min(k, Len()) distinct addresses drawn uniformly at
// random, matching the paper's random_select(k, refs).
func (s Set) RandomSubset(rng *rand.Rand, k int) Set {
	if k < 0 {
		k = 0
	}
	out := s.Shuffled(rng)
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
