package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/sim"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/workload"
)

// Scale of the networked workloads. The tests shrink these; the command
// line cannot, so two runs of the command always measure the same thing.
var (
	communityPeers = 256
	catalogItems   = 16384
	warmupOps      = map[string]int64{wlRoute: 20000, wlChurn: 20000, wlUpdateMix: 5000, wlSim: 20000}
)

// fixtureSeed builds the system under test — the grid, the nodes' own
// random sources and the catalog — the same in every run. -seed drives what
// is done to it: the op stream, the clients' choices and the churn. Keys are
// Zipf-distributed, so a handful of them carry most of the traffic, and
// where those few fall in the grid decides what a run costs (on sim, seeds
// whose hottest key has fewer than three replicas online pay 51 messages
// per op, the others 18). Rebuilding the grid from -seed would make every
// seed a different experiment; with the fixture fixed, two seeds differ the
// way two runs of one deployment do.
const fixtureSeed = 1

const (
	keyBits  = 16
	inFlight = 16 // closed-loop load: this many operations outstanding
	// replicasPerLeaf sizes the grid: maxl is chosen so that the 2^maxl
	// leaves hold about this many replicas each (256 peers: maxl 6).
	replicasPerLeaf = 4
	refMax          = 3
)

// gridConfig is the community's P-Grid configuration for n peers.
func gridConfig(n int) core.Config {
	maxl := bits.Len(uint(n/replicasPerLeaf)) - 1
	return core.Config{MaxL: max(maxl, 1), RefMax: refMax, RecMax: 2, RecFanout: 2}
}

// stack is one production transport stack, assembled as cmd/pgridnode does:
// pooled connections, retries and breakers above them, the instrumented
// transport on top. In a traced run a spanTransport sits above each layer.
type stack struct {
	id   int
	pool *node.PoolTransport
	rt   *resilience.ResilientTransport
	tel  *telemetry.Instruments
	top  node.Transport // the instrumented transport (untraced) or the wrapper around it
	rec  *recorder

	breakerMoves atomic.Int64 // breaker state transitions, any direction
}

func newStack(id int, seed int64, rec *recorder) *stack {
	s := &stack{id: id, rec: rec, tel: telemetry.New(id)}
	s.tel.EnableExemplars(0.99)
	s.pool = node.NewPoolTransport(node.PoolConfig{Size: 2, DialTimeout: 3 * time.Second, IOTimeout: 3 * time.Second})
	s.pool.SetTelemetry(s.tel)
	var below resilience.Transport = s.pool
	if rec != nil {
		below = rec.wrap(s.pool, layerPool, id, nil)
	}
	// BaseDelay is 2 ms, not pgridnode's 25 ms default: on loopback a
	// round trip is ~100 µs, and a 25 ms pause would make every retry an
	// outlier that owns p99 on its own.
	s.rt = resilience.Wrap(below, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond},
		Budget:   resilience.NewBudget(0.1, 0),
		Breaker:  resilience.BreakerConfig{Threshold: 5, Cooldown: time.Second},
		Classify: node.Classify,
		Seed:     seed,
		Tel:      s.tel,
		OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
			s.breakerMoves.Add(1)
			if to == resilience.StateOpen {
				s.pool.Evict(peer)
			}
		},
	})
	var mid node.Transport = s.rt
	if rec != nil {
		mid = rec.wrap(s.rt, layerResilience, id, nil)
	}
	s.top = node.InstrumentTransportSlow(mid, s.tel, 0, nil)
	return s
}

// entry returns the transport a caller of this stack uses. In a traced run
// each caller gets its own top wrapper; op, when non-nil, tells it which
// operation the caller is executing.
func (s *stack) entry(op *atomic.Int64) node.Transport {
	if s.rec == nil {
		return s.top
	}
	return s.rec.wrap(s.top, layerInstrumented, s.id, op)
}

// community is the system under test for the networked workloads: one
// node.Node per peer, each behind its own TCP server on loopback and each
// with its own stack, plus the load generator's stack.
type community struct {
	cfg     core.Config
	built   sim.Result
	nodes   []*node.Node
	byPath  map[bitpath.Path][]*node.Node
	stacks  []*stack
	servers []*node.Server
	client  *stack
	catalog workload.Catalog
	rec     *recorder
	bytes   atomic.Int64 // wire volume at the servers (traced runs only)

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newCommunity builds the grid with the sequential simulator engine,
// transplants every peer into a served node, and installs the catalog at
// every covering peer. Background loops (gossip, prober, maintain, repair,
// history sampler) are not started: the benchmark measures the request
// path alone.
func newCommunity(rec *recorder) (*community, error) {
	const seed = fixtureSeed
	c := &community{cfg: gridConfig(communityPeers), rec: rec, byPath: map[bitpath.Path][]*node.Node{}}
	built, err := sim.Build(sim.Options{N: communityPeers, Config: c.cfg, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("build community: %w", err)
	}
	if !built.Converged {
		return nil, fmt.Errorf("build community: not converged after %d meetings", built.Meetings)
	}
	c.built = built

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	endpoints := make([]string, communityPeers)
	for _, p := range built.Dir.All() {
		id := int(p.Addr())
		st := newStack(id, seed+int64(id), rec)
		c.stacks = append(c.stacks, st)
		n := node.New(p.Addr(), c.cfg, st.entry(nil), seed+int64(id))
		if err := n.Peer().Restore(p.Snapshot()); err != nil {
			c.Close()
			return nil, err
		}
		n.SetTelemetry(st.tel)
		n.EnableTracing(trace.NewRecorder(256), 0.01)
		n.EnableHealth()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("listen for peer %d: %w", id, err)
		}
		endpoints[id] = ln.Addr().String()
		if rec != nil {
			ln = countingListener{ln, &c.bytes}
		}
		srv := node.NewServer(n, ln)
		c.nodes = append(c.nodes, n)
		c.byPath[n.Path()] = append(c.byPath[n.Path()], n)
		c.servers = append(c.servers, srv)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			srv.Serve(ctx)
		}()
	}
	c.client = newStack(clientStack, seed-1, rec)
	for _, st := range c.allStacks() {
		for id, ep := range endpoints {
			st.pool.SetEndpoint(addr.Addr(id), ep)
		}
	}

	c.catalog = workload.FileCatalog(rand.New(rand.NewSource(seed)), catalogItems, communityPeers, keyBits)
	for _, e := range c.catalog.Entries {
		for _, n := range c.covering(e.Key) {
			n.Store().Apply(e)
		}
	}
	return c, nil
}

// covering returns the replicas of key: the nodes whose path is a prefix
// of it (keys are longer than any path). It goes through an index by path,
// so that installing the catalog adds little of the harness's own work to
// setup_s.
func (c *community) covering(key bitpath.Path) []*node.Node {
	var out []*node.Node
	for l := 0; l <= min(key.Len(), c.cfg.MaxL); l++ {
		out = append(out, c.byPath[key.Prefix(l)]...)
	}
	return out
}

// Close stops the servers and releases every connection, and returns once
// the serving goroutines have ended.
func (c *community) Close() {
	c.cancel()
	for _, s := range c.servers {
		s.Close()
	}
	for _, st := range c.stacks {
		st.pool.Close()
	}
	if c.client != nil {
		c.client.pool.Close()
	}
	c.wg.Wait()
}

// allStacks returns every stack, the load generator's last.
func (c *community) allStacks() []*stack {
	return append(c.stacks[:len(c.stacks):len(c.stacks)], c.client)
}

// faults sums what must stay zero while everyone is online: retries,
// calls that failed after retries, and breaker transitions. A dial that
// fails for lack of file descriptors or ports shows up in the first two.
type faults struct{ retries, rpcErrors, breakerMoves int64 }

func (c *community) faults() faults {
	var f faults
	for _, st := range c.allStacks() {
		f.retries += st.rt.Retries()
		_, _, errs := st.tel.Totals()
		f.rpcErrors += errs
		f.breakerMoves += st.breakerMoves.Load()
	}
	return f
}

func (f faults) sub(g faults) faults {
	return faults{f.retries - g.retries, f.rpcErrors - g.rpcErrors, f.breakerMoves - g.breakerMoves}
}

// poolStats sums the connection pools' counters over all stacks.
func (c *community) poolStats() node.PoolStats {
	var t node.PoolStats
	for _, st := range c.allStacks() {
		s := st.pool.Stats()
		t.Dials += s.Dials
		t.Reuses += s.Reuses
		t.Evictions += s.Evictions
		t.Open += s.Open
	}
	return t
}

// breakersOpen counts the breakers currently open over all stacks.
func (c *community) breakersOpen() int {
	n := 0
	for _, st := range c.allStacks() {
		for _, b := range st.rt.Breakers() {
			if b.State == resilience.StateOpen.String() {
				n++
			}
		}
	}
	return n
}

// meanPathLen is the mean path length over the community's peers.
func (c *community) meanPathLen() float64 {
	sum := 0
	for _, n := range c.nodes {
		sum += n.Path().Len()
	}
	return float64(sum) / float64(len(c.nodes))
}
