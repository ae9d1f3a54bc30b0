package node

import (
	"fmt"
	"sync"

	"pgrid/internal/addr"
	"pgrid/internal/core"
	"pgrid/internal/repair"
	"pgrid/internal/wire"
)

// LocalTransport delivers messages between nodes of the same process by
// direct dispatch — the in-memory network used by tests and the concurrent
// example. Offline nodes are unreachable, like crashed processes.
// It also counts delivered messages, standing in for the network monitor
// the experiments need.
type LocalTransport struct {
	mu    sync.RWMutex
	nodes map[addr.Addr]*Node
	msgs  int64
}

// NewLocalTransport returns an empty in-process network.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{nodes: make(map[addr.Addr]*Node)}
}

// Register attaches a node to the network.
func (t *LocalTransport) Register(n *Node) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes[n.Addr()] = n
}

// Messages returns the number of successfully delivered requests.
func (t *LocalTransport) Messages() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.msgs
}

// Call implements Transport.
func (t *LocalTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	t.mu.RLock()
	n := t.nodes[to]
	t.mu.RUnlock()
	if n == nil {
		return nil, fmt.Errorf("%w: %v is not registered", ErrOffline, to)
	}
	if !n.Online() {
		return nil, fmt.Errorf("%w: %v", ErrOffline, to)
	}
	t.mu.Lock()
	t.msgs++
	t.mu.Unlock()
	resp := n.Handle(msg)
	if resp.Kind == wire.KindError {
		return nil, fmt.Errorf("node %v: %s", to, resp.Error)
	}
	return resp, nil
}

// Cluster is a convenience bundle: n nodes wired through one
// LocalTransport, for tests and examples that want a working in-process
// P-Grid network in one call.
type Cluster struct {
	Transport *LocalTransport
	Nodes     []*Node
}

// NewCluster builds n nodes with addresses 0…n-1 over a fresh transport.
func NewCluster(n int, cfg core.Config, seed int64) *Cluster {
	tr := NewLocalTransport()
	c := &Cluster{Transport: tr, Nodes: make([]*Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = New(addr.Addr(i), cfg, tr, seed+int64(i))
		tr.Register(c.Nodes[i])
	}
	return c
}

// AvgPathLen returns the construction-convergence metric over the cluster.
func (c *Cluster) AvgPathLen() float64 {
	if len(c.Nodes) == 0 {
		return 0
	}
	sum := 0
	for _, n := range c.Nodes {
		sum += n.Path().Len()
	}
	return float64(sum) / float64(len(c.Nodes))
}

// CountInvariantViolations returns how many references across the cluster
// violate the Section 2 property.
func (c *Cluster) CountInvariantViolations() int {
	byAddr := make(map[addr.Addr]*Node, len(c.Nodes))
	for _, n := range c.Nodes {
		byAddr[n.Addr()] = n
	}
	violations := 0
	for _, n := range c.Nodes {
		s := n.Peer().Snapshot()
		for i := 1; i <= s.Path.Len(); i++ {
			for _, r := range s.Refs[i-1].Slice() {
				if q := byAddr[r]; q == nil || !repair.ValidRef(s.Path, i, q.Path()) {
					violations++
				}
			}
		}
	}
	return violations
}
