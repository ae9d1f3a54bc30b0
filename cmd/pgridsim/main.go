// pgridsim runs one P-Grid construction simulation and reports the
// convergence metrics of Section 5.1, optionally followed by a search
// reliability measurement (Section 5.2).
//
// Examples:
//
//	pgridsim -n 500 -maxl 6 -refmax 1 -recmax 0
//	pgridsim -n 20000 -maxl 10 -refmax 20 -concurrent -searches 10000 -online 0.3
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/experiments"
	"pgrid/internal/health"
	"pgrid/internal/node"
	"pgrid/internal/sim"
	"pgrid/internal/stats"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/trie"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgridsim: ")

	var (
		n          = flag.Int("n", 500, "number of peers")
		maxl       = flag.Int("maxl", 6, "maximal path length")
		refmax     = flag.Int("refmax", 1, "maximal references per level")
		recmax     = flag.Int("recmax", 2, "exchange recursion depth bound")
		fanout     = flag.Int("fanout", 2, "recursion fan-out bound (0 = unbounded)")
		threshold  = flag.Float64("threshold", 0.99, "convergence threshold as fraction of maxl")
		seed       = flag.Int64("seed", 1, "random seed")
		concurrent = flag.Bool("concurrent", false, "build with parallel goroutine meetings")
		searches   = flag.Int("searches", 0, "searches to run after construction (0 = skip)")
		keylen     = flag.Int("keylen", 0, "search key length (default maxl-1)")
		online     = flag.Float64("online", 0.3, "online probability during searches")
		histogram  = flag.Bool("histogram", false, "print the replica distribution histogram")
		healthRep  = flag.Bool("health", false, "probe every reference at the -online probability after construction and print the structural grid-health report")
		probeBud   = flag.Int("probe-budget", 256, "max probe messages per peer for the -health report")
		traceN     = flag.Int("trace", 0, "print this many example search routes (plus their cost analysis) after construction")
		tree       = flag.Bool("tree", false, "print the responsibility trie (small N only)")
		events     = flag.String("events", "", "write structured JSONL telemetry events to this file (the schema pgridnode -events uses)")
	)
	flag.Parse()

	var tel *telemetry.Instruments
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tel = telemetry.New(-1) // the engine is a driver, not a peer
		// One exchange event per meeting, written synchronously as on a
		// real node: every event reaches the file.
		sink := telemetry.NewJSONLSink(f)
		tel.SetSink(sink)
		defer func() {
			if err := sink.Flush(); err != nil {
				log.Printf("flushing %s: %v", *events, err)
			}
		}()
	}

	opts := sim.Options{
		N:         *n,
		Config:    core.Config{MaxL: *maxl, RefMax: *refmax, RecMax: *recmax, RecFanout: *fanout},
		Threshold: *threshold,
		Seed:      *seed,
		Telemetry: tel,
	}
	build := sim.Build
	if *concurrent {
		build = sim.BuildConcurrent
	}
	res, err := build(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("peers          %d\n", *n)
	fmt.Printf("config         maxl=%d refmax=%d recmax=%d fanout=%d\n", *maxl, *refmax, *recmax, *fanout)
	fmt.Printf("exchanges (e)  %d\n", res.Exchanges)
	fmt.Printf("e/N            %.2f\n", float64(res.Exchanges)/float64(*n))
	fmt.Printf("meetings       %d\n", res.Meetings)
	fmt.Printf("avg path len   %.3f (target %.3f)\n", res.AvgPathLen, *threshold*float64(*maxl))
	fmt.Printf("converged      %t\n", res.Converged)
	fmt.Printf("elapsed        %v\n", res.Elapsed)
	if err := res.Dir.CheckInvariants(); err != nil {
		log.Fatalf("INVARIANT VIOLATION: %v", err)
	}
	fmt.Printf("invariants     ok\n")

	h := stats.NewHistogram()
	for _, g := range res.Dir.ReplicaGroups() {
		for range g {
			h.Observe(len(g))
		}
	}
	fmt.Printf("replicas       mean %.2f, median %d\n", h.Mean(), h.Quantile(0.5))
	if *histogram {
		fmt.Print(h.Render(50))
	}

	if *searches > 0 {
		kl := *keylen
		if kl == 0 {
			kl = *maxl - 1
		}
		sr := experiments.SearchReliability(res.Dir, *online, *searches, kl, *refmax, *seed+1)
		experiments.RenderSearchReliability(os.Stdout, sr)
	}

	if *healthRep {
		// Transplant the built directory into networked nodes over an
		// in-process transport, knock peers offline at the -online
		// probability, and probe the survivors' references — the same
		// digest → analysis path `pgridctl cluster` runs against a real
		// community, so the two reports are directly comparable.
		tr := node.NewLocalTransport()
		nodes := make([]*node.Node, 0, *n)
		for _, p := range res.Dir.All() {
			nd := node.New(p.Addr(), opts.Config, tr, int64(p.Addr()))
			if err := nd.Peer().Restore(p.Snapshot()); err != nil {
				log.Fatal(err)
			}
			tr.Register(nd)
			nodes = append(nodes, nd)
		}
		rng := rand.New(rand.NewSource(*seed + 3))
		for _, nd := range nodes {
			if rng.Float64() >= *online {
				nd.SetOnline(false)
			}
		}
		digests := make([]health.Digest, 0, len(nodes))
		for i, nd := range nodes {
			if !nd.Online() {
				continue
			}
			node.NewProber(nd, *probeBud, int64(i)).Tick()
			digests = append(digests, nd.Digest())
		}
		fmt.Printf("grid health (online %.2f, %d of %d peers up):\n", *online, len(digests), len(nodes))
		analysis.RenderGridReport(os.Stdout, analysis.AnalyzeGrid(digests))
	}

	if *tree {
		fmt.Print(trie.FromDirectory(res.Dir).Render())
	}

	if *traceN > 0 {
		rng := rand.New(rand.NewSource(*seed + 2))
		fmt.Println("example routes:")
		collected := make([]trace.Trace, 0, *traceN)
		for i := 0; i < *traceN; i++ {
			key := bitpath.Random(rng, *maxl)
			// The route renders through the shared distributed-trace
			// renderer (trace.Render), so this output is diff-able against
			// `pgridctl trace` on a real community.
			tr := core.QueryTraced(res.Dir, res.Dir.RandomOnlinePeer(rng), key, rng)
			tr.TraceID = trace.NewTraceID(rng.Uint64(), uint64(i))
			collected = append(collected, tr)
			fmt.Printf("  %s\n", tr)
			tel.ObserveQuery(tr.Found, tr.Messages, tr.Backtracks)
			if tel.EventsOn() {
				tel.EmitQuery(key.String(), tr.Found, tr.Messages, tr.Backtracks)
			}
		}
		fmt.Println("route analysis:")
		analysis.RenderTraceReport(os.Stdout, analysis.AnalyzeTraces(collected, *n))
	}
}
