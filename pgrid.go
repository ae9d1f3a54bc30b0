// Package pgrid is a self-organizing, fully decentralized access structure
// for peer-to-peer information systems — a from-scratch implementation of
// Karl Aberer's P-Grid (2002), one of the earliest DHT designs.
//
// A P-Grid partitions a binary key space over a community of peers by
// purely local, randomized pairwise interactions: no coordinator, no global
// knowledge, no reliable nodes. Every peer becomes responsible for one
// binary path of the key space and keeps, for each bit of its path, up to
// refmax references to peers on the opposite side of that bit — enough to
// route any query in O(log N) messages even when most peers are offline.
//
// This package is the public facade: build (or fabricate) a grid, publish
// and update index entries, search by key, and read with single-replica or
// majority semantics. The distributed algorithms live in internal/core; the
// simulation engines in internal/sim; everything is deterministic under an
// explicit seed.
//
// Minimal use:
//
//	g, err := pgrid.Build(pgrid.DefaultOptions(500))
//	...
//	g.Publish(pgrid.Entry{Key: pgrid.HashKey("song.mp3", 6), Name: "song.mp3", Holder: 3})
//	res, err := g.Lookup(pgrid.HashKey("song.mp3", 6), "song.mp3")
package pgrid

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/sim"
	"pgrid/internal/stats"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trie"
	"pgrid/internal/workload"
)

// Errors returned by Grid operations.
var (
	// ErrNotFound reports that no reachable responsible peer had the entry.
	ErrNotFound = errors.New("pgrid: not found")
	// ErrUnreachable reports that no responsible peer could be reached at
	// all (routing failed, e.g. too many peers offline).
	ErrUnreachable = errors.New("pgrid: no responsible peer reachable")
	// ErrBadKey reports a key that is not a binary path.
	ErrBadKey = errors.New("pgrid: key must be a string of 0s and 1s")
)

// Options configures Build.
type Options struct {
	// Peers is the community size (≥ 2).
	Peers int
	// MaxPathLen bounds specialization depth (the paper's maxl).
	MaxPathLen int
	// RefMax bounds references per level (the paper's refmax).
	RefMax int
	// RecMax bounds exchange recursion depth (the paper's recmax; 2 is the
	// measured optimum).
	RecMax int
	// RecFanout bounds recursive exchange fan-out (0 = unbounded; 2 is the
	// paper's fix for exponential cost at refmax > 1).
	RecFanout int
	// Threshold is the construction convergence threshold as a fraction of
	// MaxPathLen (default 0.99).
	Threshold float64
	// Seed makes the build reproducible.
	Seed int64
	// Concurrent builds with parallel goroutine meetings (faster, not
	// byte-deterministic across runs).
	Concurrent bool
}

// DefaultOptions returns a balanced configuration for n peers: depth so
// that leaves hold ≈ 16 replicas, refmax 10, the optimal recursion bound.
func DefaultOptions(n int) Options {
	depth := 1
	for (1 << uint(depth+1)) <= n/16 {
		depth++
	}
	return Options{
		Peers:      n,
		MaxPathLen: depth,
		RefMax:     10,
		RecMax:     2,
		RecFanout:  2,
		Threshold:  0.99,
		Seed:       1,
	}
}

// Grid is a built P-Grid community. Its methods are safe for concurrent
// use.
type Grid struct {
	mu  sync.Mutex
	dir *directory.Directory
	cfg core.Config
	rng *rand.Rand
	tel *telemetry.Instruments
}

// SetTelemetry attaches an instrument bundle recording searches and update
// propagations performed through the facade (nil detaches; all methods
// tolerate a nil bundle at the cost of one branch).
func (g *Grid) SetTelemetry(t *telemetry.Instruments) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tel = t
}

// Build constructs a grid by running the randomized pairwise-exchange
// process until convergence.
func Build(o Options) (*Grid, error) {
	cfg := core.Config{MaxL: o.MaxPathLen, RefMax: o.RefMax, RecMax: o.RecMax, RecFanout: o.RecFanout}
	opts := sim.Options{
		N:         o.Peers,
		Config:    cfg,
		Threshold: o.Threshold,
		Seed:      o.Seed,
	}
	var (
		res sim.Result
		err error
	)
	if o.Concurrent {
		res, err = sim.BuildConcurrent(opts)
	} else {
		res, err = sim.Build(opts)
	}
	if err != nil {
		return nil, fmt.Errorf("pgrid: build: %w", err)
	}
	return &Grid{
		dir: res.Dir,
		cfg: cfg,
		rng: rand.New(rand.NewSource(o.Seed + 0x9e3779b9)),
	}, nil
}

// BuildIdeal fabricates a perfectly balanced grid without running the
// construction process: n peers over 2^depth leaves with full reference
// tables. Useful for tests and for isolating search behaviour from
// construction noise. It panics if n < 2^depth.
func BuildIdeal(n, depth, refmax int, seed int64) *Grid {
	rng := rand.New(rand.NewSource(seed))
	return &Grid{
		dir: trie.BuildIdeal(n, depth, refmax, rng),
		cfg: core.Config{MaxL: depth, RefMax: refmax, RecMax: 2, RecFanout: 2},
		rng: rng,
	}
}

// HashKey derives a uniformly distributed bits-long key from a name — the
// standard way to index arbitrary strings.
func HashKey(name string, bits int) string {
	return string(bitpath.HashKey(name, bits))
}

// TextKey derives an order- and prefix-preserving key from a string,
// enabling prefix search over text (the paper's trie extension). Beware:
// text keys inherit the text's skew.
func TextKey(s string, bits int) string {
	return string(bitpath.PrefixKey(s, bits))
}

// Entry is one index entry: peer Holder hosts an item Name indexed under
// the binary Key.
type Entry struct {
	Key     string
	Name    string
	Holder  int
	Version uint64
}

func (e Entry) internal() (store.Entry, error) {
	k, err := bitpath.Parse(e.Key)
	if err != nil {
		return store.Entry{}, fmt.Errorf("%w: %q", ErrBadKey, e.Key)
	}
	v := e.Version
	if v == 0 {
		v = 1
	}
	return store.Entry{Key: k, Name: e.Name, Holder: addr.Addr(e.Holder), Version: v}, nil
}

func external(e store.Entry) Entry {
	return Entry{Key: string(e.Key), Name: e.Name, Holder: int(e.Holder), Version: e.Version}
}

// Cost reports the message cost of an operation.
type Cost struct {
	// Messages is the number of peer-to-peer messages spent.
	Messages int
	// Replicas is the number of distinct replicas involved (reached by an
	// update, or voting in a majority read).
	Replicas int
}

// Publish inserts a new entry, spreading it over the replicas of its key
// with one breadth-first pass. Version 0 is treated as 1.
func (g *Grid) Publish(e Entry) (Cost, error) {
	se, err := e.internal()
	if err != nil {
		return Cost{}, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	res := core.Insert(g.dir, se, g.cfg.RefMax, g.rng)
	g.tel.ObserveUpdate(core.BreadthFirst.String(), res.Replicas, res.Messages)
	if res.Replicas == 0 {
		return Cost{Messages: res.Messages}, ErrUnreachable
	}
	return Cost{Messages: res.Messages, Replicas: res.Replicas}, nil
}

// Update propagates a new version of an entry using `repetition`
// breadth-first passes of breadth `recbreadth` (Section 5.2's scheme).
// Stale versions never overwrite fresher ones.
func (g *Grid) Update(e Entry, recbreadth, repetition int) (Cost, error) {
	se, err := e.internal()
	if err != nil {
		return Cost{}, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	res := core.Update(g.dir, se, recbreadth, repetition, g.rng)
	g.tel.ObserveUpdate(core.BreadthFirst.String(), res.Replicas, res.Messages)
	if res.Replicas == 0 {
		return Cost{Messages: res.Messages}, ErrUnreachable
	}
	return Cost{Messages: res.Messages, Replicas: res.Replicas}, nil
}

// SearchResult reports a successful routing.
type SearchResult struct {
	// Peer is the responsible peer found.
	Peer int
	// Path is the peer's responsibility path.
	Path string
	// Cost is the messages spent.
	Cost Cost
}

// Search routes to a peer responsible for key, starting at a random online
// peer.
func (g *Grid) Search(key string) (SearchResult, error) {
	k, err := bitpath.Parse(key)
	if err != nil {
		return SearchResult{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	start := g.dir.RandomOnlinePeer(g.rng)
	if start == nil {
		return SearchResult{}, ErrUnreachable
	}
	res := core.Query(g.dir, start, k, g.rng)
	g.tel.ObserveQuery(res.Found, res.Messages, res.Backtracks)
	if !res.Found {
		return SearchResult{Cost: Cost{Messages: res.Messages}}, ErrUnreachable
	}
	return SearchResult{
		Peer: int(res.Peer),
		Path: string(g.dir.Peer(res.Peer).Path()),
		Cost: Cost{Messages: res.Messages},
	}, nil
}

// Lookup reads the entry stored under (key, name) from one responsible
// replica (the paper's non-repetitive read: cheap, but may return a stale
// version after a partial update).
func (g *Grid) Lookup(key, name string) (Entry, Cost, error) {
	k, err := bitpath.Parse(key)
	if err != nil {
		return Entry{}, Cost{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	start := g.dir.RandomOnlinePeer(g.rng)
	if start == nil {
		return Entry{}, Cost{}, ErrUnreachable
	}
	res := core.ReadOnce(g.dir, start, k, name, g.rng)
	cost := Cost{Messages: res.Messages}
	if !res.Found {
		return Entry{}, cost, ErrNotFound
	}
	return external(res.Entry), cost, nil
}

// MajorityLookup reads (key, name) with the repetitive-search protocol:
// independent searches from random entry points until one version leads by
// `margin` distinct replicas. With more than half the replicas up to date
// this returns the current version with arbitrarily high probability as
// margin grows.
func (g *Grid) MajorityLookup(key, name string, margin int) (Entry, Cost, error) {
	k, err := bitpath.Parse(key)
	if err != nil {
		return Entry{}, Cost{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	res := core.MajorityRead(g.dir, k, name, core.MajorityOptions{Margin: margin}, g.rng)
	cost := Cost{Messages: res.Messages, Replicas: res.Queries}
	if !res.Found {
		return Entry{}, cost, ErrNotFound
	}
	return external(res.Entry), cost, nil
}

// PrefixSearch returns every known entry whose key starts with prefix, by
// fanning out over the covering replicas breadth-first and merging their
// leaf indexes (freshest version per (key, name) wins). With TextKey-encoded keys
// this is textual prefix search (the paper's Section 6 trie extension).
func (g *Grid) PrefixSearch(prefix string) ([]Entry, Cost, error) {
	k, err := bitpath.Parse(prefix)
	if err != nil {
		return nil, Cost{}, fmt.Errorf("%w: %q", ErrBadKey, prefix)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	start := g.dir.RandomOnlinePeer(g.rng)
	if start == nil {
		return nil, Cost{}, ErrUnreachable
	}
	res := core.ReplicaSearch(g.dir, start, k, g.cfg.RefMax, g.rng)
	if len(res.Found) == 0 {
		return nil, Cost{Messages: res.Messages}, ErrUnreachable
	}
	var merged store.Fold
	for _, a := range res.Found {
		merged.Add(g.dir.Peer(a).Store().PrefixScan(k))
	}
	return externals(merged.Entries()), Cost{Messages: res.Messages, Replicas: len(res.Found)}, nil
}

func externals(es []store.Entry) []Entry {
	out := make([]Entry, len(es))
	for i, e := range es {
		out[i] = external(e)
	}
	return out
}

// SeedIndex installs entries directly at every covering replica using
// global knowledge — an oracle for bootstrapping experiments and tests
// (real insertions go through Publish).
func (g *Grid) SeedIndex(entries ...Entry) error {
	ses := make([]store.Entry, len(entries))
	for i, e := range entries {
		se, err := e.internal()
		if err != nil {
			return err
		}
		ses[i] = se
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	core.PopulateIndex(g.dir, ses...)
	return nil
}

// SetOnlineFraction independently sets each peer online with probability p
// (the paper's availability model). Use 1 to bring everyone back.
func (g *Grid) SetOnlineFraction(p float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if p >= 1 {
		g.dir.SetAllOnline(true)
		return
	}
	g.dir.SampleOnline(g.rng, p)
}

// ChurnStep advances every peer's online/offline session by one step of a
// Markov churn model with the given stationary online fraction and mean
// session length, returning the online count.
func (g *Grid) ChurnStep(onlineFraction, meanSessionSteps float64) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := workload.ChurnForOnlineFraction(onlineFraction, meanSessionSteps)
	return sim.ChurnStep(g.dir, c, g.rng)
}

// Stats summarizes the grid's current shape.
type Stats struct {
	Peers        int
	Online       int
	AvgPathLen   float64
	MaxPathLen   int
	ReplicaMean  float64 // mean replica-group size over peers
	ReplicaMin   int
	ReplicaMax   int
	IndexEntries int // total index entries over all peers
}

// Stats computes a snapshot of the community.
func (g *Grid) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Stats{Peers: g.dir.N(), Online: g.dir.OnlineCount(), AvgPathLen: g.dir.AvgPathLen()}
	h := stats.NewHistogram()
	for _, group := range g.dir.ReplicaGroups() {
		for range group {
			h.Observe(len(group))
		}
	}
	if h.Total() > 0 {
		s.ReplicaMean = h.Mean()
		bs := h.Buckets()
		s.ReplicaMin = bs[0].Value
		s.ReplicaMax = bs[len(bs)-1].Value
	}
	for _, p := range g.dir.All() {
		if l := p.PathLen(); l > s.MaxPathLen {
			s.MaxPathLen = l
		}
		s.IndexEntries += p.Store().Len()
	}
	return s
}

// Verify checks the structural invariants of the whole community (the
// reference property of Section 2). It is cheap enough to run in tests
// after any sequence of operations.
func (g *Grid) Verify() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dir.CheckInvariants()
}

// N returns the community size.
func (g *Grid) N() int { return g.dir.N() }

// Directory exposes the underlying peer directory for the experiment
// harness and the examples; it is not part of the stable API surface.
func (g *Grid) Directory() *directory.Directory { return g.dir }
