package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"pgrid"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/sim"
	"pgrid/internal/workload"
)

// Scale of the sim workload: the paper's Sec. 5.2 experiment. The tests
// shrink it; the command line cannot.
var (
	simPeers   = 20000
	simMaxL    = 10
	simEntries = 2000
)

const (
	simRefMax    = 20
	simThreshold = 0.943
	simOnline    = 0.3
	simMargin    = 3
	simSetups    = 3 // set-ups per untraced run; setup_s is their median
)

var simMix = []share{{opSearch, 0.80}, {opUpdate, 0.10}, {opMajorityLookup, 0.10}}

func simOptions() pgrid.Options {
	return pgrid.Options{Peers: simPeers, MaxPathLen: simMaxL, RefMax: simRefMax, RecMax: 2, RecFanout: 2,
		Threshold: simThreshold, Seed: fixtureSeed}
}

// simRun is the sim workload in progress: one caller on the public facade.
type simRun struct {
	g       *pgrid.Grid
	entries []pgrid.Entry
	gen     *opGen
	load    *loader
	// replicas[i] is how many peers cover entry i's key; existing sums it
	// over the updates executed (traced runs only).
	replicas []int
	existing int64
}

// setUpSim builds the grid with the sequential engine, seeds the index and
// takes most peers offline, as the Sec. 5.2 experiment does.
func setUpSim() (*simRun, error) {
	g, err := pgrid.Build(simOptions())
	if err != nil {
		return nil, err
	}
	cat := workload.FileCatalog(rand.New(rand.NewSource(fixtureSeed)), simEntries, simPeers, keyBits)
	s := &simRun{g: g, entries: make([]pgrid.Entry, len(cat.Entries))}
	for i, e := range cat.Entries {
		s.entries[i] = pgrid.Entry{Key: string(e.Key), Name: e.Name, Holder: int(e.Holder), Version: e.Version}
	}
	if err := g.SeedIndex(s.entries...); err != nil {
		return nil, err
	}
	g.SetOnlineFraction(simOnline)
	return s, nil
}

func (s *simRun) exec(_ int, o op) outcome {
	e := s.entries[o.item]
	switch o.kind {
	case opSearch:
		res, err := s.g.Search(e.Key)
		out := outcome{msgs: res.Cost.Messages}
		switch {
		case errors.Is(err, pgrid.ErrUnreachable):
			out.status = statusMiss
		case err != nil || !bitpath.Comparable(bitpath.Path(res.Path), bitpath.Path(e.Key)):
			out.status = statusWrong
		}
		return out
	case opUpdate:
		e.Version = o.version
		cost, err := s.g.Update(e, recBreadth, repetition)
		out := outcome{msgs: cost.Messages, aux: cost.Replicas}
		switch {
		case errors.Is(err, pgrid.ErrUnreachable):
			out.status = statusMiss
		case err != nil:
			out.status = statusWrong
		}
		if s.replicas != nil {
			s.existing += int64(s.replicas[o.item])
		}
		return out
	case opMajorityLookup:
		got, cost, err := s.g.MajorityLookup(e.Key, e.Name, simMargin)
		out := outcome{msgs: cost.Messages, aux: cost.Replicas}
		switch {
		case errors.Is(err, pgrid.ErrNotFound):
			out.status = statusMiss
		case err != nil || got.Name != e.Name || got.Key != e.Key:
			out.status = statusWrong
		case got.Version != e.Version && !s.gen.wrote(got.Version, o.item, s.load.next.Load()):
			out.status = statusWrong
		}
		return out
	}
	panic("benchmark: sim workload generated op " + opKindNames[o.kind])
}

// meanNS is the mean of sorted latencies.
func meanNS(lat []int64) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum int64
	for _, v := range lat {
		sum += v
	}
	return float64(sum) / float64(len(lat))
}

// runSim runs the sim workload for one seed. maxOps, when positive, ends
// the window after that many ops instead of after seconds (the tests use
// it: an op-counted window repeats exactly).
func runSim(seed int64, seconds time.Duration, maxOps int64, traced bool) (*result, error) {
	r := newResult(wlSim, btoi(traced), seed)

	// setup_s here is the construction benchmark. A traced run reports no
	// set-up time and builds once.
	reps := simSetups
	if traced {
		reps = 1
	}
	var s *simRun
	var setups []float64
	for i := 0; i < reps; i++ {
		s = nil
		debug.FreeOSMemory() // a discarded set-up must not count towards rss_peak_mb
		t0 := time.Now()
		var err error
		if s, err = setUpSim(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))
	if traced {
		dir := s.g.Directory()
		s.replicas = make([]int, len(s.entries))
		for i, e := range s.entries {
			s.replicas[i] = len(dir.Covering(bitpath.Path(e.Key)))
		}
	}

	s.gen = newOpGen(seed, wlSim, simMix, len(s.entries), simPeers)
	s.load = newLoader(s.gen, 1, nil)
	s.load.exec = s.exec
	warm := s.load.run(warmupOps[wlSim], 0)
	r.set("runtime.warmup_s", warm.elapsed.Seconds())

	var win, timed *window
	if traced {
		timed = s.load.run(maxOps/2, seconds/2)
		s.existing = 0
		win = s.load.run(maxOps/2, seconds/2)
		// Nothing is wrapped here, so this is the drift between two halves.
		r.set("trace.overhead_ratio", win.opsPerS()/timed.opsPerS())
	} else {
		win = s.load.run(maxOps, seconds)
		timed = win
	}
	reportWindow(r, win, timed)
	r.Failed = win.wrong
	if r.Failed > 0 {
		r.problem("%d of %d ops returned a wrong answer", win.wrong, win.ops)
	}
	if err := s.g.Verify(); err != nil {
		r.problem("grid invariants after the window: %v", err)
	}

	if traced {
		r.set("runtime.heap_live_mb", heapLiveMB())
		q, u, m := &win.byKind[opSearch], &win.byKind[opUpdate], &win.byKind[opMajorityLookup]
		r.set("core.query_ns", meanNS(q.lat))
		r.set("core.query_msgs", float64(q.msgs)/float64(max(q.n, 1)))
		r.set("core.update_us", meanNS(u.lat)/1e3)
		r.set("core.update_reach_ratio", float64(u.aux)/float64(max(s.existing, 1)))
		r.set("core.majority_read_us", meanNS(m.lat)/1e3)

		// The facade does not report backtracks; the kernel does.
		dir := s.g.Directory()
		rng := rand.New(rand.NewSource(seed))
		backs, queries := 0, probeCalls/10
		for i := 0; i < queries; i++ {
			if start := dir.RandomOnlinePeer(rng); start != nil {
				backs += core.Query(dir, start, bitpath.Path(s.entries[i%len(s.entries)].Key), rng).Backtracks
			}
		}
		r.set("core.query_backtracks", float64(backs)/float64(queries))

		entries := 0
		for _, p := range dir.All() {
			entries += p.Store().Len()
		}
		r.set("store.entries_per_node", float64(entries)/float64(dir.N()))
		for _, p := range dir.All() {
			if p.Store().Len() > 0 {
				probeStore(r, p.Store(), p.Path())
				break
			}
		}

		// The same construction through the engine's own entry point, which
		// reports what the facade hides, and once more on the concurrent
		// engine.
		o := simOptions()
		opts := sim.Options{N: o.Peers, Threshold: o.Threshold, Seed: o.Seed,
			Config: core.Config{MaxL: o.MaxPathLen, RefMax: o.RefMax, RecMax: o.RecMax, RecFanout: o.RecFanout}}
		built, err := sim.Build(opts)
		if err != nil {
			return nil, fmt.Errorf("sequential build: %w", err)
		}
		r.set("sim.build_s", built.Elapsed.Seconds())
		r.set("sim.build_meetings_per_s", float64(built.Meetings)/built.Elapsed.Seconds())
		r.set("sim.build_exchanges_per_peer", float64(built.Exchanges)/float64(o.Peers))
		probeConcurrentBuild(r, opts)
	}
	r.Correct = len(r.Problems) == 0
	return r, nil
}
