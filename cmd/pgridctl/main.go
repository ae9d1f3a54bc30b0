// pgridctl is the client for pgridnode communities: it publishes entries,
// queries the distributed index, and inspects node state over the same
// wire protocol the nodes speak among themselves.
//
//	pgridctl -peers 0=:7000,1=:7001 observe 0 ask=links
//	pgridctl -peers 0=:7000,1=:7001 publish 0 song.mp3 1
//	pgridctl -peers 0=:7000,1=:7001 lookup 1 song.mp3
//	pgridctl -peers 0=:7000,1=:7001 query 0 010110
//	pgridctl -peers 0=:7000,1=:7001 trace 0 010110
//
// Keys are derived from names by hashing (the same HashKey the library
// uses) unless a raw binary key is given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/url"
	"os"
	"slices"
	"strconv"
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
		sloSpecs = flag.String("slo", "query:p99:5ms", "latency objectives, judged by cluster and observe ask=history over the history window: kind:pNN:threshold,... (empty disables)")
		jsonOut  = flag.Bool("json", false, "machine-readable output: observe and cluster emit one JSON object per frame (observe's is the /debug/observe JSON)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, `usage: pgridctl -peers <endpoints> <command> [args]

commands:
  query <id> <key>              route a search for a binary key, starting at node <id>
  trace <id> <key>              route one fully-sampled search and print every hop
  publish <id> <name> <holder>  index an item (key = hash of name) at every replica a breadth-first
                                search from node <id> reaches, the entry riding each visit
  lookup <id> <name>            search for an item by name, starting at node <id>
  mlookup <name>                majority read across the community (repetitive search)
  replicas <id> <key>           list all reachable peers covering a binary key
  scan <id> <key-prefix>        list all entries under a binary key prefix
  observe <id> <query> [interval] [count]
                                ask node <id> what a /debug/observe query string names: ask=links,
                                ask=metrics, 'ask=health,liveness', 'ask=repair,repair-now' (a round
                                first), 'ask=traces&limit=5' or 'ask=history&window=2m' (trends, and
                                per kind the calls, their rate and latency quantiles)
  cluster <id> [interval] [count]
                                walk the community from node <id> and print its verdict over every
                                reached peer's history ring: RED rollups, sparkline trends (RPC rate,
                                error rate, served p99, pool wait), per-kind calls, rate and quantiles,
                                anomaly findings, top-K slow and erroring peers, windowed SLO burn, the
                                structural and repair census, unreachable and unlisted peers and every
                                reference breaking the Sec. 2 property; one shot (the default) exits 1
                                if any of those fails

[interval] [count] refreshes every interval, count times (0, the default, = until killed); without
them, or with count 1, one plain frame is printed and the process exits with its code
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if *peers == "" || len(args) == 0 {
		usageError("-peers and a command are required")
	}
	if *timeout <= 0 {
		log.Fatalf("-timeout must be positive, got %v (an unbounded wait on a dead peer would hang forever)", *timeout)
	}

	if *retries < 1 {
		log.Fatalf("-retries must be at least 1, got %d", *retries)
	}
	objectives, err := slo.ParseList(*sloSpecs)
	if err != nil {
		usageError("bad -slo: %v", err)
	}
	endpoints, err := node.ParseEndpoints(*peers)
	if err != nil {
		usageError("bad -peers: %v", err)
	}

	// Every command talks through this one transport, so the -timeout
	// bound applies to every dial and roundtrip the CLI ever makes.
	// Retries wrap around it: a CLI run is short-lived, so transient
	// blips get the retry loop but no budget and no breakers. Multi-call
	// commands (cluster, mlookup) reuse pooled connections instead of
	// re-dialing each peer per request.
	pool := node.NewPoolTransport(node.PoolConfig{
		DialTimeout: *timeout,
		IOTimeout:   *timeout,
	})
	defer pool.Close()
	all := make([]addr.Addr, 0, len(endpoints)) // by id: publish's second entry point is the highest
	for a, ep := range endpoints {
		pool.SetEndpoint(a, ep)
		all = append(all, a)
	}
	slices.Sort(all)
	var tr node.Transport = resilience.Wrap(pool, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: *retries},
		Classify: node.Classify,
		Seed:     time.Now().UnixNano(),
	})
	client := node.NewClient(tr, time.Now().UnixNano())

	cmd, args := args[0], args[1:]
	switch cmd {
	case "query":
		fallthrough
	case "trace": // one walk: a trace has its context ride on every visit
		id := mustID(args, 0)
		key, err := bitpath.Parse(arg(args, 1))
		if err != nil {
			log.Fatal(err)
		}
		dt, err := client.Route(id, key, cmd == "trace")
		if err != nil {
			log.Fatal(err)
		}
		if cmd == "query" {
			if !dt.Found {
				log.Fatalf("no responsible peer reachable for %s (%d messages)", key, dt.Messages)
			}
			last := dt.Spans[len(dt.Spans)-1] // a found route ends at the responsible peer
			fmt.Printf("responsible peer %v (path %s), %d messages\n", last.Peer, last.Path, dt.Messages)
			break
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

	case "observe":
		id := mustID(args, 0)
		q, err := url.ParseQuery(arg(args, 1))
		if err != nil {
			usageError("bad observe query: %v", err)
		}
		req, err := wire.ParseObserve(q)
		if err != nil {
			usageError("%v", err)
		}
		interval, count := intervalCount(args[2:])
		os.Exit(refresh(os.Stdout, fmt.Sprintf("observe node %v", id), interval, count, *jsonOut, func() (any, func(io.Writer), int) {
			o, err := client.Observe(id, req)
			if err != nil {
				log.Fatal(err)
			}
			return o, func(w io.Writer) { analysis.RenderObserve(w, id, o, len(all), objectives) }, 0
		}))

	case "cluster":
		id := mustID(args, 0)
		interval, count := intervalCount(args[1:])
		os.Exit(refresh(os.Stdout, fmt.Sprintf("cluster from node %v", id), interval, count, *jsonOut, func() (any, func(io.Writer), int) {
			f := collectCluster(client, id, all, objectives)
			return f, f.print, f.exitCode()
		}))

	default:
		usageError("unknown command %q", cmd)
	}
}

// usageError reports what is wrong with the command line, prints the usage
// and exits 2.
func usageError(format string, a ...any) {
	log.Printf(format, a...)
	flag.Usage()
	os.Exit(2)
}

func arg(args []string, i int) string {
	if i >= len(args) {
		usageError("missing argument %d", i+1)
	}
	return args[i]
}

func mustID(args []string, i int) addr.Addr {
	v, err := strconv.Atoi(arg(args, i))
	if err != nil || v < 0 {
		usageError("bad peer id %q", arg(args, i))
	}
	return addr.Addr(v)
}

// intervalCount parses the [interval] [count] tail observe and cluster
// share: no tail is one frame, and an interval alone refreshes until killed
// (count 0).
func intervalCount(tail []string) (time.Duration, int) {
	var interval time.Duration
	count := 1
	if len(tail) > 0 {
		d, err := time.ParseDuration(tail[0])
		if err != nil || d <= 0 {
			usageError("bad interval %q", tail[0])
		}
		interval, count = d, 0
	}
	if len(tail) > 1 {
		v, err := strconv.Atoi(tail[1])
		if err != nil || v < 0 {
			usageError("bad count %q", tail[1])
		}
		count = v
	}
	return interval, count
}

// refresh is the loop observe and cluster share: count frames
// (0 = until killed) interval apart, each collected anew and written to w —
// one JSON object a line with jsonOut, else its text, which a refreshing run
// redraws in place under the title and the time. Count 1 prints one plain
// frame. It returns the last frame's exit code.
func refresh(w io.Writer, title string, interval time.Duration, count int, jsonOut bool, collect func() (frame any, text func(io.Writer), code int)) int {
	enc := json.NewEncoder(w)
	code := 0
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		frame, text, c := collect()
		switch {
		case jsonOut:
			if err := enc.Encode(frame); err != nil {
				log.Fatal(err)
			}
		case count == 1:
			text(w)
		default:
			fmt.Fprintf(w, "\x1b[H\x1b[2J%s · %s\n", title, time.Now().Format("15:04:05")) // cursor home + clear
			text(w)
		}
		code = c
	}
	return code
}
