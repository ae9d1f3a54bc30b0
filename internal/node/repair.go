package node

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// Repairer is the self-healing loop of a networked node, and the only
// background loop that probes its references. Each round runs the repair
// kernel, core.Repair, with its calls answered over the node's transport:
// it detects structural faults — references on the wrong side of the
// Section 2 prefix invariant, dead directory entries, replicas whose path or
// store fingerprint drifted from their group, entries stored outside the
// node's responsibility — and heals what it can within the message budget.
// The repairer books what the round did, and its counts are the
// pgrid_repair_* series.
type Repairer struct {
	node   *Node
	every  time.Duration
	budget int // messages per round, core.RepairBudget

	round sync.Mutex // serializes rounds; held across a round's calls

	// mu guards what follows and is never held across a call, so the
	// counts can be read while a round runs.
	mu            sync.Mutex
	rng           *rand.Rand
	st            repair.Status // all but the tallies, kept in faults and heals
	faults, heals map[string]int64
}

// NewRepairer attaches a repair loop to the node and registers it so the
// node answers the repair column for it, and lists its counts on the node's
// instruments. The interval must be positive; a round spends at most
// core.RepairBudget messages. Health probing is enabled as a side effect
// (repair shares the liveness tracker). Call after Node.SetTelemetry and
// before the node starts serving; the repairer field is not synchronized.
func NewRepairer(n *Node, every time.Duration, seed int64) *Repairer {
	if every <= 0 {
		panic(fmt.Sprintf("node: repair interval %v must be positive", every))
	}
	n.EnableHealth()
	r := &Repairer{
		node:   n,
		every:  every,
		budget: core.RepairBudget,
		rng:    rand.New(rand.NewSource(seed)),
		st:     repair.Status{Enabled: true},
		faults: make(map[string]int64),
		heals:  make(map[string]int64),
	}
	n.repairer = r
	reg := n.tel.Registry()
	reg.CounterFunc("pgrid_repair_rounds_total", "self-healing repair rounds completed", r.read(func() int64 { return r.st.Rounds }))
	reg.CounterFunc("pgrid_repair_messages_total", "wire messages spent by repair rounds", r.read(func() int64 { return r.st.Messages }))
	reg.GaugeFunc("pgrid_repair_unhealed", "faults the last repair round detected but could not heal (0 = structurally healthy)",
		r.read(func() int64 { return r.st.LastUnhealed }))
	return r
}

// read wraps a read of the repairer's counts in its lock.
func (r *Repairer) read(f func() int64) func() int64 {
	return func() int64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return f()
	}
}

// book adds one round's faults or heals to their tallies. A name seen for
// the first time is listed on the registry as family{label=name}, so the
// series name only what happened. Called under r.mu.
func (r *Repairer) book(tally map[string]int64, names []string, family, label, help string) {
	for _, name := range names {
		if tally[name]++; tally[name] == 1 {
			r.node.tel.Registry().CounterFunc(telemetry.Label(family, label, name), help, r.read(func() int64 { return tally[name] }))
		}
	}
}

// Run ticks the repair loop until the context is cancelled. Rounds are
// jittered uniformly over [0.75, 1.25] of the interval so a fleet started
// together does not repair in lockstep.
func (r *Repairer) Run(ctx context.Context) {
	for {
		r.mu.Lock()
		d := r.every/4*3 + time.Duration(r.rng.Int63n(int64(r.every)/2+1))
		r.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
			r.Tick()
		}
	}
}

// Status returns the repairer's cumulative tallies. Nil-safe: a nil
// repairer reports Enabled=false, which is how peers without repair
// answer the repair column.
func (r *Repairer) Status() repair.Status {
	if r == nil {
		return repair.Status{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.st
	st.Faults, st.Heals = repair.Tallies(r.faults), repair.Tallies(r.heals)
	return st
}

// Tick runs one detection+healing round. Rounds are serialized; a
// triggered round (wire.AskRepairNow) and the background loop never
// interleave. An offline node skips the round entirely.
func (r *Repairer) Tick() {
	r.round.Lock()
	defer r.round.Unlock()
	n := r.node
	if !n.Online() {
		return
	}
	round := core.Repair(n.self, n.cfg.RefMax, r.budget, repairCalls{n})
	r.mu.Lock()
	r.book(r.faults, round.Faults, "pgrid_repair_fault_total", "class", "structural faults detected by the repair protocol, by class")
	r.book(r.heals, round.Heals, "pgrid_repair_heal_total", "action", "healing actions taken by the repair protocol, by action")
	r.st.Rounds++
	r.st.Messages += int64(round.Spent)
	r.st.LastFaults, r.st.LastHeals, r.st.LastUnhealed = int64(len(round.Faults)), int64(len(round.Heals)), int64(round.Unhealed)
	id := r.rng.Uint64()
	for id == 0 {
		id = r.rng.Uint64()
	}
	r.mu.Unlock()
	n.rec.Record(trace.Trace{TraceID: id, Key: n.Path(), Found: round.Unhealed == 0,
		Messages: round.Spent, Backtracks: round.Unhealed, Spans: round.Spans})
	n.htr.RoundDone()
}

// repairCalls answers the repair kernel's calls over the node's transport,
// one message each. Reference probes go through probeRef, so the health
// tracker and the liveness counters see every one.
type repairCalls struct{ n *Node }

func (c repairCalls) Health(to addr.Addr) repair.BuddyView {
	resp, err := c.n.tr.Call(to, &wire.Message{Kind: wire.KindObserve, From: c.n.Addr(),
		Observe: &wire.ObserveReq{Asks: wire.AskHealth}})
	if err != nil || resp.ObserveResp == nil || resp.ObserveResp.Health == nil {
		return repair.BuddyView{}
	}
	d := resp.ObserveResp.Health.Digest
	return repair.BuddyView{Path: d.Path, Entries: d.Entries, IndexHash: d.IndexHash, Reachable: true}
}

func (c repairCalls) Info(to addr.Addr, self bitpath.Path, level int) (bitpath.Path, addr.Set, bool) {
	var info *wire.InfoResp
	if level > 0 {
		info, _ = c.n.probeRef(self, level, to)
	} else if resp, err := c.n.tr.Call(to, &wire.Message{Kind: wire.KindInfo, From: c.n.Addr()}); err == nil {
		info = resp.InfoResp
	}
	if info == nil {
		return bitpath.Empty, addr.Set{}, false
	}
	return info.Path, info.Buddies.ToSet(), true
}

func (c repairCalls) Route(via addr.Addr, key bitpath.Path) (core.QueryResult, bitpath.Path, bool) {
	res, path, _, ok := c.n.route(via, key, nil)
	return res, path, ok
}

func (c repairCalls) Scan(from addr.Addr, prefix bitpath.Path) ([]store.Entry, bool) {
	resp, err := c.n.tr.Call(from, &wire.Message{Kind: wire.KindScan, From: c.n.Addr(),
		Scan: &wire.ScanReq{Prefix: prefix}})
	if err != nil || resp.ScanResp == nil {
		return nil, false
	}
	return resp.ScanResp.Entries, true
}

func (c repairCalls) Apply(to addr.Addr, entries []store.Entry) bool {
	resp, err := c.n.tr.Call(to, &wire.Message{Kind: wire.KindApply, From: c.n.Addr(),
		Apply: &wire.ApplyReq{Entries: entries}})
	return err == nil && resp.ApplyResp != nil
}
