package node

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"pgrid/internal/addr"
)

// Gossiper drives a node's participation in the community: it periodically
// initiates an exchange with a random known peer — the "peers meet
// randomly" process of Section 3 that self-organizes the access structure.
// cmd/pgridnode runs one per process; tests run many in-process.
type Gossiper struct {
	node   *Node
	others []addr.Addr
	every  time.Duration

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

// NewGossiper returns a gossiper for n meeting the given peers every
// interval. It panics if others is empty or the interval non-positive.
func NewGossiper(n *Node, others []addr.Addr, every time.Duration, seed int64) *Gossiper {
	if len(others) == 0 {
		panic("node: NewGossiper with no peers to meet")
	}
	if every <= 0 {
		panic("node: NewGossiper with non-positive interval")
	}
	return &Gossiper{
		node:   n,
		others: append([]addr.Addr(nil), others...),
		every:  every,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Run gossips until ctx is done. An offline node skips its turns (it
// neither initiates nor, via the transports, answers).
func (g *Gossiper) Run(ctx context.Context) {
	t := time.NewTicker(g.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.Tick()
		}
	}
}

// Tick performs one meeting attempt immediately; exported so tests and
// simulations can drive gossip without wall-clock timers.
func (g *Gossiper) Tick() {
	if !g.node.Online() {
		return
	}
	g.mu.Lock()
	to := g.others[g.rng.Intn(len(g.others))]
	g.mu.Unlock()
	if to == g.node.Addr() {
		return
	}
	_ = g.node.Exchange(to) // a failed meeting is not retried: a later tick meets again
}
