package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/store"
	"pgrid/internal/workload"
)

// Parameters of the client operations, as the issue fixes them.
const (
	readEntries     = 4 // entry points of a majority read
	readMargin      = 2
	readMaxQueries  = 12
	publishEntries  = 2
	recBreadth      = 2
	repetition      = 2
	prefixBits      = 5
	churnOnline     = 0.75 // stationary online fraction of the churned peers
	churnSession    = 20   // mean online session, in churn steps
	stableEntries   = 16   // peers 0..15 never churn and are the entry points
	eq3Tolerance    = 0.10 // as in the repository's AvailabilityAgrees soaks
	networkedSetups = 15   // set-ups per untraced run; setup_s is their median
	rereadPublished = 1000
)

// churnEvery is the period of the churn steps. Time-driven, so that a
// session keeps its length against the breakers' 1 s cool-down when the
// code under test gets faster.
var churnEvery = 500 * time.Millisecond

// noFilePerPeer sizes the descriptor limit the networked workloads need,
// 16384 for 256 peers: every stack keeps up to two connections to each of
// its ~18 references, each connection is a descriptor at both ends, and
// the load generator and the listeners add theirs (a route run holds
// ~12 000). Below it dials fail and would read as offline peers.
const noFilePerPeer = 64

// raiseNoFile lifts the soft descriptor limit to the hard one and refuses
// to run below what the community needs.
func raiseNoFile() error {
	minNoFile := uint64(noFilePerPeer * communityPeers)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	lim.Cur = lim.Max
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("setrlimit: %w", err)
	}
	if lim.Cur < minNoFile {
		return fmt.Errorf("RLIMIT_NOFILE is %d, the networked workloads need %d", lim.Cur, minNoFile)
	}
	return nil
}

var networkedMix = map[string][]share{
	wlRoute:     {{opLookup, 1}},
	wlChurn:     {{opLookup, 1}},
	wlUpdateMix: {{opMajorityRead, 0.50}, {opPublish, 0.25}, {opPrefixSearch, 0.25}},
}

// netRun is one networked workload in progress.
type netRun struct {
	name    string
	c       *community
	gen     *opGen
	load    *loader
	clients []*node.Client
	// allOnline says nobody is ever offline, so a miss has no excuse and
	// counts as a failure.
	allOnline bool
}

// exec performs one op through the worker's client and checks the answer.
func (n *netRun) exec(w int, o op) outcome {
	cl := n.clients[w]
	e := n.c.catalog.Entries[o.item]
	switch o.kind {
	case opLookup:
		res := cl.Lookup(o.entries[0], e.Key, e.Name)
		return n.checkRead(res, o.item, e)
	case opMajorityRead:
		res := cl.MajorityRead(o.entries[:readEntries], e.Key, e.Name, readMargin, readMaxQueries)
		out := n.checkRead(res, o.item, e)
		out.aux = res.Queries
		return out
	case opPublish:
		e.Version = o.version
		replicas, msgs := cl.Publish(o.entries[:publishEntries], e, recBreadth, repetition)
		out := outcome{msgs: msgs, aux: replicas}
		if replicas < 1 {
			out.status = statusMiss
		}
		return out
	case opPrefixSearch:
		prefix := e.Key.Prefix(prefixBits)
		found, msgs := cl.PrefixSearch(o.entries[0], prefix, recBreadth)
		out := outcome{msgs: msgs, aux: len(found)}
		if len(found) == 0 {
			out.status = statusMiss
		}
		for _, f := range found {
			if !f.Key.HasPrefix(prefix) {
				out.status = statusWrong
			}
		}
		return out
	}
	panic("benchmark: networked workload generated op " + opKindNames[o.kind])
}

// checkRead accepts a read that returned the requested name at the
// catalog's version or at a version this run has published for it.
func (n *netRun) checkRead(res node.ReadResult, item int, want store.Entry) outcome {
	out := outcome{msgs: res.Messages}
	switch {
	case !res.Found:
		out.status = statusMiss
	case res.Entry.Name != want.Name || res.Entry.Key != want.Key:
		out.status = statusWrong
	case res.Entry.Version != want.Version && !n.gen.wrote(res.Entry.Version, item, n.load.next.Load()):
		out.status = statusWrong
	}
	return out
}

// churner toggles the churned peers' availability every churnEvery until
// stopped, and keeps the time-averaged online fraction it produced.
type churner struct {
	stop chan struct{}
	done sync.WaitGroup

	mu            sync.Mutex
	steps, online int64 // summed over steps: peers considered, peers online
}

// The schedule is part of the fixture, like the grid: which replicas of the
// few hot keys are away, and for how long, decides what a window costs.
func startChurn(c *community) *churner {
	ch := &churner{stop: make(chan struct{})}
	rng := rand.New(rand.NewSource(fixtureSeed))
	model := workload.ChurnForOnlineFraction(churnOnline, churnSession)
	churned := c.nodes[min(stableEntries, len(c.nodes)):]
	state := make([]bool, len(churned))
	for i, n := range churned {
		state[i] = rng.Float64() < churnOnline // start in the stationary distribution
		n.SetOnline(state[i])
	}
	ch.done.Add(1)
	go func() {
		defer ch.done.Done()
		t := time.NewTicker(churnEvery)
		defer t.Stop()
		for {
			select {
			case <-ch.stop:
				return
			case <-t.C:
			}
			on := 0
			for i, n := range churned {
				state[i] = model.Step(rng, state[i])
				n.SetOnline(state[i])
				if state[i] {
					on++
				}
			}
			ch.mu.Lock()
			ch.steps += int64(len(churned))
			ch.online += int64(on)
			ch.mu.Unlock()
		}
	}()
	return ch
}

// halt stops the churn and brings everyone back.
func (ch *churner) halt(c *community) {
	close(ch.stop)
	ch.done.Wait()
	for _, n := range c.nodes {
		n.SetOnline(true)
	}
}

// onlineFraction is the time-averaged share of the whole community that
// was online; the stable entry peers count as online all the time.
func (ch *churner) onlineFraction(c *community) float64 {
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.steps == 0 {
		return 1
	}
	stable := float64(min(stableEntries, len(c.nodes)))
	churned := float64(len(c.nodes)) - stable
	return (stable + churned*float64(ch.online)/float64(ch.steps)) / float64(len(c.nodes))
}

// setUpNetworked builds the community, several times in an untraced run,
// and returns the last one with the median set-up time: one slow accept
// loop or one GC cycle must not decide setup_s. A traced run reports no
// set-up time and sets up once.
func setUpNetworked(traced bool) (c *community, rec *recorder, setupS float64, err error) {
	reps := networkedSetups
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if c != nil {
			c.Close()
			debug.FreeOSMemory() // a discarded set-up must not count towards rss_peak_mb
		}
		if traced {
			rec = newRecorder()
		}
		t0 := time.Now()
		if c, err = newCommunity(rec); err != nil {
			return nil, nil, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return c, rec, median(setups), nil
}

// measured is the window of a networked run with the counters read around
// it.
type measured struct {
	win, timed   *window // timed is win, or in a traced run the untraced stretch before it
	faults       faults  // over the window
	pool0, pool1 node.PoolStats
	wireBytes    int64
	breakersOpen int
	onlineFrac   float64
}

// measure warms up and runs the window. In a traced run the first half of
// the time passes with the wrappers idle and the second with them
// recording: the ratio of the two rates is what tracing costs.
func (n *netRun) measure(r *result, seconds time.Duration) measured {
	c := n.c
	var ch *churner
	if !n.allOnline {
		ch = startChurn(c)
	}
	warm := n.load.run(warmupOps[n.name], 0)
	r.set("runtime.warmup_s", warm.elapsed.Seconds())

	m := measured{onlineFrac: 1}
	if c.rec != nil {
		m.timed = n.load.run(0, seconds/2)
		seconds -= seconds / 2
		c.bytes.Store(0)
		c.rec.on.Store(true)
	}
	m.pool0 = c.poolStats()
	base := c.faults()
	m.win = n.load.run(0, seconds)
	m.faults = c.faults().sub(base)
	m.pool1 = c.poolStats()
	m.wireBytes = c.bytes.Load()
	m.breakersOpen = c.breakersOpen()
	if c.rec != nil {
		c.rec.on.Store(false)
		r.set("trace.overhead_ratio", m.win.opsPerS()/m.timed.opsPerS())
	} else {
		m.timed = m.win
	}
	if ch != nil {
		ch.halt(c)
		m.onlineFrac = ch.onlineFraction(c)
	}
	return m
}

// check applies the workload's correctness checks to the window.
func (n *netRun) check(r *result, m measured) {
	win, c := m.win, n.c
	r.Failed = win.wrong
	if n.allOnline {
		// With everyone online nothing may go missing, and no layer may have
		// seen a fault: resource exhaustion must never pass for offline
		// peers.
		r.Failed += win.misses
		if m.faults != (faults{}) {
			r.problem("faults with everyone online: %d retries, %d failed calls, %d breaker transitions",
				m.faults.retries, m.faults.rpcErrors, m.faults.breakerMoves)
		}
	}
	if r.Failed > 0 {
		r.problem("%d of %d ops failed (%d wrong, %d missing)", r.Failed, win.ops, win.wrong, win.misses)
	}
	switch n.name {
	case wlRoute:
		// A lookup is client→entry, the Fig. 2 hops, and one get.
		if hops := float64(win.msgs)/float64(max(win.ops, 1)) - 2; hops > float64(c.cfg.MaxL) {
			r.problem("%.2f hops per search exceed log2 of the %d leaves", hops, 1<<c.cfg.MaxL)
		}
	case wlChurn:
		if diff := win.availability() - n.eq3(m); math.Abs(diff) > eq3Tolerance {
			r.problem("availability %.4f is %.4f from Eq. 3's %.4f (tolerance %.2f)",
				win.availability(), diff, n.eq3(m), eq3Tolerance)
		}
	case wlUpdateMix:
		n.rereadPublished(r)
	}
}

// eq3 is the paper's predicted search success at the online fraction the
// window saw.
func (n *netRun) eq3(m measured) float64 {
	return analysis.SuccessProbability(m.onlineFrac, n.c.cfg.RefMax, int(math.Round(n.c.meanPathLen())))
}

// reportLayers turns the traced window's spans and counters into the
// per-layer metrics, runs the direct timings, and writes the spans out.
func (n *netRun) reportLayers(r *result, m measured, traceOut string) error {
	win, c := m.win, n.c
	ops := float64(max(win.ops, 1))
	spans, samples := c.rec.drain()
	lt := totals(spans)
	calls := func(l int) float64 { return float64(max(lt.calls[l], 1)) }
	r.set("wire.bytes_per_op", float64(m.wireBytes)/ops)
	// Every successful attempt is a request frame and a response frame.
	r.set("wire.bytes_per_msg", float64(m.wireBytes)/float64(max(2*(lt.calls[layerPool]-lt.errs[layerPool]), 1)))
	r.setQ("node.pool.rtt_leaf_us_p50", quantile(lt.leafRTT, 0.50)/1e3, len(lt.leafRTT))
	r.setQ("node.pool.rtt_leaf_us_p99", quantile(lt.leafRTT, 0.99)/1e3, len(lt.leafRTT))
	r.set("node.pool.calls_per_op", float64(lt.calls[layerPool])/ops)
	dials, reuses := float64(m.pool1.Dials-m.pool0.Dials), float64(m.pool1.Reuses-m.pool0.Reuses)
	r.set("node.pool.reuse_ratio", reuses/math.Max(reuses+dials, 1))
	r.set("node.pool.dials_per_kop", 1000*dials/ops)
	r.set("node.pool.evictions_per_kop", 1000*float64(m.pool1.Evictions-m.pool0.Evictions)/ops)
	r.set("node.pool.open_conns", float64(m.pool1.Open))
	r.set("resilience.self_us_per_call", float64(lt.ns[layerResilience]-lt.ns[layerPool])/1e3/calls(layerResilience))
	r.set("resilience.attempts_per_call", float64(lt.calls[layerPool])/calls(layerResilience))
	r.set("resilience.retries_per_op", float64(m.faults.retries)/ops)
	r.set("resilience.fastfail_ratio", float64(lt.fastFail)/calls(layerResilience))
	r.set("resilience.error_ratio", float64(lt.errs[layerResilience])/calls(layerResilience))
	r.set("resilience.breakers_open", float64(m.breakersOpen))
	r.set("node.instrumented.self_ns_per_call", float64(lt.ns[layerInstrumented]-lt.ns[layerResilience])/calls(layerInstrumented))
	if lt.queries > 0 {
		hops := float64(lt.hops) / float64(lt.queries)
		r.set("node.hops_per_query", hops)
		r.set("node.hops_over_log2n", hops/float64(c.cfg.MaxL))
		r.set("node.backtracks_per_query", float64(lt.backs)/float64(lt.queries))
	}
	r.set("node.availability_minus_eq3", win.availability()-n.eq3(m))
	for _, k := range []struct {
		kind      opKind
		p50, mean string
	}{
		{opLookup, "node.client.lookup_us_p50", ""},
		{opMajorityRead, "node.client.majority_read_us_p50", "node.client.majority_read_queries"},
		{opPublish, "node.client.publish_us_p50", "node.client.publish_replicas"},
		{opPrefixSearch, "node.client.prefix_search_us_p50", ""},
	} {
		kw := &win.byKind[k.kind]
		if kw.n == 0 {
			continue
		}
		r.setQ(k.p50, quantile(kw.lat, 0.50)/1e3, len(kw.lat))
		if k.mean != "" {
			r.set(k.mean, float64(kw.aux)/float64(kw.n))
		}
	}
	r.set("runtime.heap_live_mb", heapLiveMB())
	probeLayers(r, c, samples, quantile(lt.leafRTT, 0.50))
	n.probeExchange(r)
	if traceOut == "" {
		return nil
	}
	meta := map[string]any{"workload": n.name, "seed": r.Seed, "spans_recorded": len(spans) + len(win.spans),
		"spans_written_max": maxSpansWritten, "epoch_unix_ns": c.rec.epoch.UnixNano()}
	if err := writeSpans(traceOut, meta, append(spans, win.spans...)); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// runNetworked runs route, update_mix or churn for one seed and returns
// its result: the end-to-end metrics, or in a traced run the per-layer
// ones.
func runNetworked(name string, seed int64, seconds time.Duration, traced bool, traceOut string) (*result, error) {
	if err := raiseNoFile(); err != nil {
		return nil, err
	}
	r := newResult(name, btoi(traced), seed)
	c, rec, setupS, err := setUpNetworked(traced)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	r.set("setup_s", setupS)

	entryPeers := communityPeers
	if name == wlChurn {
		entryPeers = min(stableEntries, communityPeers)
	}
	n := &netRun{name: name, c: c, allOnline: name != wlChurn,
		gen: newOpGen(seed, name, networkedMix[name], len(c.catalog.Entries), entryPeers)}
	n.load = newLoader(n.gen, inFlight, rec)
	n.load.exec = n.exec
	for w := 0; w < inFlight; w++ {
		// One client per worker (Client's rng is not safe for concurrent
		// use), all on the one client-side stack.
		n.clients = append(n.clients, node.NewClient(c.client.entry(&n.load.opNow[w]), seed+int64(w)))
	}

	m := n.measure(r, seconds)
	reportWindow(r, m.win, m.timed)
	n.check(r, m)
	if traced {
		if err := n.reportLayers(r, m, traceOut); err != nil {
			return nil, err
		}
	}
	r.Correct = len(r.Problems) == 0
	return r, nil
}

// rereadPublished checks, for the first names this run published, that no
// replica holds them at a version older than the catalog's.
func (n *netRun) rereadPublished(r *result) {
	seen := map[int]bool{}
	issued := n.load.next.Load()
	for k := int64(0); k < issued && len(seen) < rereadPublished; k++ {
		o := n.gen.at(k)
		if o.kind != opPublish || seen[o.item] {
			continue
		}
		seen[o.item] = true
		want := n.c.catalog.Entries[o.item]
		for _, nd := range n.c.covering(want.Key) {
			got, ok := nd.Store().Get(want.Key, want.Name)
			if !ok || got.Version < want.Version {
				r.problem("replica %v holds %q at version %d (found %v), catalog has %d",
					nd.Addr(), want.Name, got.Version, ok, want.Version)
			}
		}
	}
	if len(seen) == 0 {
		r.problem("update_mix published nothing")
	}
}

// probeExchange times the networked Fig. 3 path: meetings between random
// pairs, after everything else, because an exchange rewrites references.
func (n *netRun) probeExchange(r *result) {
	const meetings = 200
	rec := n.c.rec
	rng := rand.New(rand.NewSource(r.Seed))
	rec.on.Store(true)
	var lat []int64
	for i := 0; i < meetings; i++ {
		a := n.c.nodes[rng.Intn(len(n.c.nodes))]
		b := addr.Addr(rng.Intn(len(n.c.nodes)))
		t0 := time.Now()
		if err := a.Exchange(b); err != nil {
			// After churn a breaker may still be cooling down; with everyone
			// online all along there is no such excuse.
			if n.allOnline {
				r.problem("exchange %v→%v: %v", a.Addr(), b, err)
			}
			continue
		}
		lat = append(lat, int64(time.Since(t0)))
	}
	rec.on.Store(false)
	spans, _ := rec.drain()
	slices.Sort(lat)
	r.setQ("node.exchange_us_p50", quantile(lat, 0.50)/1e3, len(lat))
	r.set("node.exchange_msgs_per_meeting", float64(totals(spans).calls[layerPool])/meetings)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
