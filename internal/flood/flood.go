// Package flood implements the Gnutella-style baseline the paper's
// introduction argues against: no index at all — search requests are
// broadcast over a random overlay with a TTL and every reached peer scans
// its local database. It exists so the Section 6 comparison ("this approach
// is extremely costly in terms of communication") is measured rather than
// asserted.
package flood

import (
	"fmt"
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/store"
)

// Network is a random overlay of peers, each holding a local database of
// items it hosts. The zero value is not usable; call New.
type Network struct {
	neighbors [][]addr.Addr
	items     []map[string]store.Entry
	online    []bool
}

// New builds an overlay of n peers in which every peer opens `degree`
// connections to distinct random other peers (links are bidirectional, so
// observed degrees average about 2·degree, like Gnutella's).
func New(rng *rand.Rand, n, degree int) *Network {
	if n < 2 || degree < 1 {
		panic(fmt.Sprintf("flood: New(%d, %d) out of range", n, degree))
	}
	nw := &Network{
		neighbors: make([][]addr.Addr, n),
		items:     make([]map[string]store.Entry, n),
		online:    make([]bool, n),
	}
	for i := range nw.items {
		nw.items[i] = make(map[string]store.Entry)
		nw.online[i] = true
	}
	link := func(a, b int) {
		for _, x := range nw.neighbors[a] {
			if x == addr.Addr(b) {
				return
			}
		}
		nw.neighbors[a] = append(nw.neighbors[a], addr.Addr(b))
		nw.neighbors[b] = append(nw.neighbors[b], addr.Addr(a))
	}
	for i := 0; i < n; i++ {
		for k := 0; k < degree; k++ {
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			link(i, j)
		}
	}
	return nw
}

// Host places an item in a peer's local database.
func (nw *Network) Host(a addr.Addr, e store.Entry) {
	nw.items[a][e.Name] = e
}

// RandomOnlinePeer returns a random online peer address, or addr.Nil.
func (nw *Network) RandomOnlinePeer(rng *rand.Rand) addr.Addr {
	cands := make([]addr.Addr, 0, len(nw.online))
	for i, on := range nw.online {
		if on {
			cands = append(cands, addr.Addr(i))
		}
	}
	if len(cands) == 0 {
		return addr.Nil
	}
	return cands[rng.Intn(len(cands))]
}

// Result reports one flooded search.
type Result struct {
	// Found holds every match discovered (the same item may be hosted by
	// several peers).
	Found []store.Entry
	// Messages is the number of query transmissions (each edge crossed by
	// the request counts once — the Gnutella cost model).
	Messages int
	// Reached is the number of distinct peers that processed the request.
	Reached int
}

// Search floods a query for an item name from start with the given TTL.
// Every reached online peer scans its local database; the request is
// forwarded to all neighbors until the TTL expires. Peers deduplicate
// requests they have already seen (Gnutella's message-id table), but a
// transmission to an already-visited or offline peer still costs a message
// — the sender cannot know.
func (nw *Network) Search(rng *rand.Rand, start addr.Addr, name string, ttl int) Result {
	var res Result
	if !start.Valid() || !nw.online[start] {
		return res
	}
	type hop struct {
		at  addr.Addr
		ttl int
	}
	visited := map[addr.Addr]bool{start: true}
	frontier := []hop{{start, ttl}}
	for len(frontier) > 0 {
		h := frontier[0]
		frontier = frontier[1:]
		res.Reached++
		if e, ok := nw.items[h.at][name]; ok {
			res.Found = append(res.Found, e)
		}
		if h.ttl == 0 {
			continue
		}
		for _, nb := range nw.neighbors[h.at] {
			res.Messages++ // every forwarded copy costs, delivered or not
			if visited[nb] || !nw.online[nb] {
				continue
			}
			visited[nb] = true
			frontier = append(frontier, hop{nb, h.ttl - 1})
		}
	}
	return res
}
