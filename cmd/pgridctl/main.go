// pgridctl is the client for pgridnode communities: it publishes entries,
// queries the distributed index, and inspects node state over the same
// wire protocol the nodes speak among themselves.
//
//	pgridctl -peers 0=:7000,1=:7001 info 0
//	pgridctl -peers 0=:7000,1=:7001 publish 0 song.mp3 1
//	pgridctl -peers 0=:7000,1=:7001 lookup 1 song.mp3
//	pgridctl -peers 0=:7000,1=:7001 query 0 010110
//	pgridctl -peers 0=:7000,1=:7001 trace 0 010110
//
// Keys are derived from names by hashing (the same HashKey the library
// uses) unless a raw binary key is given.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/slo"
	"pgrid/internal/store"
	"pgrid/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pgridctl: ")

	var (
		peers    = flag.String("peers", "", "community endpoints: id=host:port,... (required)")
		keybits  = flag.Int("keybits", 8, "bits for keys hashed from names")
		timeout  = flag.Duration("timeout", 3*time.Second, "global bound on every RPC dial and roundtrip (must be > 0, or a dead peer would hang the CLI)")
		retries  = flag.Int("retries", 3, "max attempts per RPC (1 = no retries)")
		sloSpecs = flag.String("slo", "query:p99:5ms", "latency objectives for cluster reports: kind:pNN:threshold,... (empty disables)")
		jsonOut  = flag.Bool("json", false, "machine-readable output: top, cluster, and watch emit one JSON object per frame")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: pgridctl -peers <endpoints> <command> [args]

commands:
  info <id>                     print a node's path, references, and entry count
  query <id> <key>              route a search for a binary key, starting at node <id>
  trace <id> <key>              route one fully-sampled search and print every hop
  traces <id> [limit]           dump a node's flight recorder (recent sampled routes + cost analysis)
  publish <id> <name> <holder>  index an item (key = hash of name) at every replica a breadth-first
                                search from node <id> reaches, the entry riding each visit
  lookup <id> <name>            search for an item by name, starting at node <id>
  mlookup <name>                majority read across the community (repetitive search)
  replicas <id> <key>           list all reachable peers covering a binary key
  scan <id> <key-prefix>        list all entries under a binary key prefix
  stats <id>                    dump a node's telemetry counters (the /metrics data, over the wire)
  top [-cluster] <id> [interval] [count]
                                refreshing live summary: rates, per-kind latency quantiles, pool,
                                breakers (default 2s forever; count 1 = one plain frame);
                                -cluster merges every reachable peer's metrics into one view
  audit                         fetch every node's state and verify the reference invariant
  health <id>                   print a node's replica digest and per-level reference liveness
  repair <id> [now]             print a node's self-healing repair status: rounds, per-class fault
                                and heal tallies, healthy/repairing/stuck verdict; "now" first runs
                                one repair round on the node and reports the updated status
  crawl <id>                    walk the whole community from node <id> and print the structural report
  cluster <id> [interval] [count]
                                crawl from node <id>, federate every peer's metrics snapshot, and print
                                the cluster report: merged latency quantiles, RED rollups, top-K slow and
                                erroring peers, SLO burn verdicts (default one shot; interval = refresh)
  watch [-cluster] <id> [interval] [count]
                                refreshing sparkline trends from the node's history ring: RPC rate, error
                                rate, served p99, pool wait, drops, anomaly findings, and windowed SLO
                                verdicts (default 2s forever; count 1 = one plain frame); -cluster
                                federates every reachable peer's ring via the community walk
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if *peers == "" || len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *timeout <= 0 {
		log.Fatalf("-timeout must be positive, got %v (an unbounded wait on a dead peer would hang forever)", *timeout)
	}

	if *retries < 1 {
		log.Fatalf("-retries must be at least 1, got %d", *retries)
	}

	// Every command talks through this one transport, so the -timeout
	// bound applies to every dial and roundtrip the CLI ever makes.
	// Retries wrap around it: a CLI run is short-lived, so transient
	// blips get the retry loop but no budget and no breakers. Multi-call
	// commands (crawl, audit, mlookup) reuse pooled connections instead
	// of re-dialing each peer per request.
	pool := node.NewPoolTransport(node.PoolConfig{
		DialTimeout: *timeout,
		IOTimeout:   *timeout,
	})
	defer pool.Close()
	var all []addr.Addr
	for _, pair := range strings.Split(*peers, ",") {
		id, ep, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			log.Fatalf("bad endpoint %q", pair)
		}
		v, err := strconv.Atoi(id)
		if err != nil {
			log.Fatalf("bad peer id %q", id)
		}
		pool.SetEndpoint(addr.Addr(v), ep)
		all = append(all, addr.Addr(v))
	}
	var tr node.Transport = resilience.Wrap(pool, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: *retries},
		Classify: node.Classify,
		Seed:     time.Now().UnixNano(),
	})
	client := node.NewClient(tr, time.Now().UnixNano())

	cmd, args := args[0], args[1:]
	switch cmd {
	case "info":
		id := mustID(args, 0)
		resp := mustCall(tr, id, &wire.Message{Kind: wire.KindInfo, From: addr.Nil})
		info := resp.InfoResp
		fmt.Printf("node %v\n  path     %s\n  entries  %d\n  buddies  %v\n",
			info.Addr, info.Path, info.Entries, info.Buddies.Addrs)
		for i, rs := range info.Refs {
			fmt.Printf("  level %2d %v\n", i+1, rs.Addrs)
		}

	case "query":
		id := mustID(args, 0)
		key, err := bitpath.Parse(arg(args, 1))
		if err != nil {
			log.Fatal(err)
		}
		resp := mustCall(tr, id, &wire.Message{Kind: wire.KindQuery, From: addr.Nil,
			Query: &wire.QueryReq{Key: key}})
		q := resp.QueryResp
		if !q.Found {
			log.Fatalf("no responsible peer reachable for %s (%d messages)", key, q.Messages)
		}
		fmt.Printf("responsible peer %v (path %s), %d messages\n", q.Peer, q.Path, q.Messages)

	case "trace":
		id := mustID(args, 0)
		key, err := bitpath.Parse(arg(args, 1))
		if err != nil {
			log.Fatal(err)
		}
		dt, err := client.TraceQuery(id, key)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace %016x\n%s\n", dt.TraceID, dt)
		for _, s := range dt.Spans {
			marks := ""
			if s.Matched {
				marks += " matched"
			}
			if s.Backtracked {
				marks += " backtracked"
			}
			ref := "-"
			if s.Ref != addr.Nil {
				ref = fmt.Sprint(s.Ref)
			}
			fmt.Printf("  %v path=%s level=%d ref=%s latency=%v%s\n",
				s.Peer, s.Path, s.Level, ref, time.Duration(s.LatencyNS), marks)
		}
		if !dt.Found {
			os.Exit(1)
		}

	case "traces":
		id := mustID(args, 0)
		limit := 0
		if len(args) > 1 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 0 {
				log.Fatalf("bad limit %q", args[1])
			}
			limit = v
		}
		o, err := client.Observe(id, wire.ObserveReq{Asks: wire.AskTraces, TraceLimit: limit})
		if err != nil {
			log.Fatal(err)
		}
		traces := o.Traces.Traces
		fmt.Printf("node %v flight recorder: %d retained (of %d ever recorded)\n", id, len(traces), o.Traces.Total)
		for _, dt := range traces {
			fmt.Printf("  %016x %s\n", dt.TraceID, dt)
		}
		if len(traces) > 0 {
			fmt.Println("route analysis:")
			analysis.RenderTraceReport(os.Stdout, analysis.AnalyzeTraces(traces, len(all)))
		}

	case "publish":
		id := mustID(args, 0)
		name := arg(args, 1)
		holder := mustID(args, 2)
		key := bitpath.HashKey(name, *keybits)
		entry := store.Entry{Key: key, Name: name, Holder: holder, Version: uint64(time.Now().UnixNano())}
		replicas, msgs := client.Publish([]addr.Addr{id, all[len(all)-1]}, entry, 3, 2)
		if replicas == 0 {
			log.Fatalf("no replica reachable for key %s", key)
		}
		fmt.Printf("published %q (key %s) at %d replicas, %d messages\n", name, key, replicas, msgs)

	case "lookup":
		id := mustID(args, 0)
		name := arg(args, 1)
		key := bitpath.HashKey(name, *keybits)
		res := client.Lookup(id, key, name)
		if res.Replica == addr.Nil {
			log.Fatalf("no responsible peer reachable for %q", name)
		}
		if !res.Found {
			log.Fatalf("%q not indexed (asked peer %v)", name, res.Replica)
		}
		e := res.Entry
		fmt.Printf("%q → hosted by peer %v (key %s, version %d), %d routing messages\n",
			name, e.Holder, e.Key, e.Version, res.Messages-1)

	case "mlookup":
		name := arg(args, 0)
		key := bitpath.HashKey(name, *keybits)
		res := client.MajorityRead(all, key, name, 3, 64)
		if !res.Found {
			log.Fatalf("%q not found after %d queries", name, res.Queries)
		}
		e := res.Entry
		fmt.Printf("%q → hosted by peer %v (version %d), decided after %d queries / %d messages\n",
			name, e.Holder, e.Version, res.Queries, res.Messages)

	case "replicas":
		id := mustID(args, 0)
		key, err := bitpath.Parse(arg(args, 1))
		if err != nil {
			log.Fatal(err)
		}
		res := client.ReplicaSearch(id, key, 3)
		fmt.Printf("%d covering peers reachable for %s (%d messages):\n", len(res.Found), key, res.Messages)
		for _, a := range res.Found {
			fmt.Printf("  %v\n", a)
		}

	case "scan":
		id := mustID(args, 0)
		prefix, err := bitpath.Parse(arg(args, 1))
		if err != nil {
			log.Fatal(err)
		}
		entries, msgs := client.PrefixSearch(id, prefix, 3)
		fmt.Printf("%d entries under %s (%d messages):\n", len(entries), prefix, msgs)
		for _, e := range entries {
			fmt.Printf("  %s\n", e)
		}

	case "stats":
		id := mustID(args, 0)
		stats, err := fetchStats(client, id)
		if err != nil {
			log.Fatal(err)
		}
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("node %v telemetry (%d series)\n", id, len(names))
		for _, name := range names {
			fmt.Printf("  %-56s %d\n", name, stats[name])
		}

	case "top":
		clusterMode := false
		if len(args) > 0 && args[0] == "-cluster" {
			clusterMode = true
			args = args[1:]
		}
		id := mustID(args, 0)
		interval, count := intervalCount(args, 2*time.Second, 0)
		fetch := func() (statMap, error) { return fetchStats(client, id) }
		scope := fmt.Sprintf("node %v", id)
		if clusterMode {
			fetch = func() (statMap, error) { return fetchClusterStats(client, id) }
			scope = fmt.Sprintf("cluster from node %v", id)
		}
		runTop(fetch, scope, interval, count, *jsonOut)

	case "watch":
		clusterMode := false
		if len(args) > 0 && args[0] == "-cluster" {
			clusterMode = true
			args = args[1:]
		}
		id := mustID(args, 0)
		interval, count := intervalCount(args, 2*time.Second, 0)
		objectives, err := slo.ParseList(*sloSpecs)
		if err != nil {
			log.Fatal(err)
		}
		runWatch(client, id, clusterMode, objectives, interval, count, *jsonOut)

	case "cluster":
		id := mustID(args, 0)
		// One frame by default — the report is a diagnostic document, not
		// a dashboard; an explicit interval turns on refresh-forever.
		count := 1
		if len(args) > 1 {
			count = 0
		}
		interval, count := intervalCount(args, 2*time.Second, count)
		objectives, err := slo.ParseList(*sloSpecs)
		if err != nil {
			log.Fatal(err)
		}
		runCluster(client, id, objectives, interval, count, *jsonOut)

	case "health":
		id := mustID(args, 0)
		o, err := client.Observe(id, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness})
		if err != nil {
			log.Fatal(err)
		}
		d := o.Health.Digest
		fmt.Printf("node %v health (%d probe rounds)\n  %s\n", id, o.Health.Rounds, d)
		for _, lp := range d.Liveness {
			r, _ := lp.Ratio()
			fmt.Printf("  level %2d liveness %.2f (%d live / %d dead)\n", lp.Level, r, lp.Live, lp.Dead)
		}

	case "repair":
		id := mustID(args, 0)
		req := wire.ObserveReq{Asks: wire.AskRepair}
		if len(args) > 1 && args[1] == "now" {
			req.Asks |= wire.AskRepairNow
		}
		o, err := client.Observe(id, req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node %v repair\n", id)
		analysis.RenderRepairStatus(os.Stdout, *o.Repair)

	case "crawl":
		id := mustID(args, 0)
		res := client.Walk(id, wire.ObserveReq{Asks: wire.AskHealth | wire.AskLiveness | wire.AskRepair})
		fmt.Printf("crawled %d peers from node %v (%d messages)\n", len(res.Reached), id, res.Messages)
		for _, a := range res.Unreachable {
			fmt.Printf("  unreachable: %v\n", a)
		}
		rep := analysis.AnalyzeGrid(res.Digests)
		rep.AttachRepair(res.Repairs)
		analysis.RenderGridReport(os.Stdout, rep)
		if len(res.Unreachable) > 0 {
			os.Exit(1)
		}

	case "audit":
		rep := client.Audit(all)
		fmt.Printf("reachable %d/%d peers, avg depth %.2f, %d index entries\n",
			rep.Reachable, len(all), rep.AvgDepth, rep.Entries)
		for _, a := range rep.Unreachable {
			fmt.Printf("  unreachable: %v\n", a)
		}
		if len(rep.Violations) == 0 {
			fmt.Println("reference invariant: ok")
		} else {
			for _, v := range rep.Violations {
				fmt.Printf("  VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

func arg(args []string, i int) string {
	if i >= len(args) {
		log.Fatalf("missing argument %d", i+1)
	}
	return args[i]
}

func mustID(args []string, i int) addr.Addr {
	v, err := strconv.Atoi(arg(args, i))
	if err != nil || v < 0 {
		log.Fatalf("bad peer id %q", arg(args, i))
	}
	return addr.Addr(v)
}

// intervalCount parses the optional [interval] [count] tail shared by the
// refreshing commands, falling back to the given defaults.
func intervalCount(args []string, interval time.Duration, count int) (time.Duration, int) {
	if len(args) > 1 {
		d, err := time.ParseDuration(args[1])
		if err != nil || d <= 0 {
			log.Fatalf("bad interval %q", args[1])
		}
		interval = d
	}
	if len(args) > 2 {
		v, err := strconv.Atoi(args[2])
		if err != nil || v < 0 {
			log.Fatalf("bad count %q", args[2])
		}
		count = v
	}
	return interval, count
}

func mustCall(tr node.Transport, to addr.Addr, m *wire.Message) *wire.Message {
	resp, err := tr.Call(to, m)
	if err != nil {
		log.Fatal(err)
	}
	return resp
}
