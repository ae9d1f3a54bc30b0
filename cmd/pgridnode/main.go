// pgridnode runs one networked P-Grid peer over TCP.
//
// Every node needs a logical id, a listen address, and the endpoint table
// of the community (comma-separated id=host:port pairs, or a file with one
// pair per line; files may contain blank lines and # comments). With
// -meet > 0 the node actively gossips: every interval it initiates an
// exchange with a random known peer, which is how the access structure
// self-organizes.
//
// A three-node community on one machine:
//
//	pgridnode -id 0 -listen :7000 -peers 0=:7000,1=:7001,2=:7002 -meet 200ms
//	pgridnode -id 1 -listen :7001 -peers 0=:7000,1=:7001,2=:7002 -meet 200ms
//	pgridnode -id 2 -listen :7002 -peers 0=:7000,1=:7001,2=:7002 -meet 200ms
//
// Interrogate it with pgridctl, or give it -admin :9090 and watch
// /metrics, /healthz, /debug/observe, /debug/breakers, /debug/vars, and
// /debug/pprof live. Outgoing calls go through a resilient transport:
// -retries attempts with jittered exponential backoff from 25 ms, globally
// bounded by a retry budget of 0.1 tokens per call, behind per-peer circuit
// breakers that open after 5 consecutive failures and probe again after 2 s;
// -timeout bounds each attempt's dial and its round trip.
// With -repair-interval the node runs the self-healing repair protocol, its
// one background reference-maintenance loop: every round probes the
// references and detects structural faults (invariant-violating or dead
// references, path drift, diverged or orphaned replicas, orphaned entries),
// heals them within 64 messages, and reports through the pgrid_repair_*
// series and the repair column of an observe (/debug/observe?ask=repair,
// `pgridctl observe <id> ask=repair`); the probes also
// feed the health digest, the pgrid_health_* gauges, and the
// -health-min-liveness readiness check. With -events the
// node appends one JSON line per exchange/query/RPC to a file, in the same
// schema pgridsim -events writes; each line is encoded synchronously into
// a buffer that is written through as it fills and flushed on exit. With
// -slow-rpc any outgoing call over the threshold is counted, and recorded
// with its span context into a dedicated flight recorder served at
// /debug/slow; per-kind latency quantiles are live at /metrics. With
// -history-interval the node runs its one metrics
// sampler: each tick takes one snapshot of every series into a fixed-memory
// ring five minutes deep, served at /debug/observe?ask=history and to
// `pgridctl observe <id> ask=history` and `pgridctl cluster` over the wire
// (per kind the calls, their rate and windowed quantiles); latency buckets at or above the 0.99
// quantile keep the trace id of their latest traced request, which rides in
// the metrics column's ExIdx/ExTrace (`pgridctl -json observe <id>
// ask=metrics` shows it). The node
// judges no latency objective: `pgridctl -slo` does, over the ring
// (`cluster`, `observe <id> ask=history`).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

func main() {
	var (
		id        = flag.Int("id", -1, "logical peer id (required, must appear in -peers)")
		listen    = flag.String("listen", "", "listen address, e.g. :7000 (required)")
		peers     = flag.String("peers", "", "community endpoints: id=host:port,... (required)")
		peersFile = flag.String("peers-file", "", "file with one id=host:port per line (alternative to -peers)")
		maxl      = flag.Int("maxl", 8, "maximal path length")
		refmax    = flag.Int("refmax", 5, "maximal references per level")
		recmax    = flag.Int("recmax", 2, "exchange recursion bound")
		fanout    = flag.Int("fanout", 2, "recursion fan-out bound")
		meet      = flag.Duration("meet", 500*time.Millisecond, "interval between initiated exchanges (0 = passive)")
		seed      = flag.Int64("seed", 0, "random seed (0 = derived from id and time)")
		status    = flag.Duration("status", 5*time.Second, "interval between status log lines (0 = quiet)")
		stateFile = flag.String("state", "", "persist node state to this file (load at boot, save periodically and on shutdown)")
		timeout   = flag.Duration("timeout", 3*time.Second, "bound on each outgoing call's dial and, separately, its request/response round trip")
		retries   = flag.Int("retries", 3, "max attempts per outgoing call (1 = no retries)")
		repairInt = flag.Duration("repair-interval", 0, "interval between self-healing repair rounds, jittered ±25% (0 = off)")
		healthMin = flag.Float64("health-min-liveness", 0, "/healthz reports 503 while the worst per-level reference liveness is below this (0 = disabled)")
		admin     = flag.String("admin", "", "admin HTTP listen address (/metrics, /healthz, /debug/{observe,slow,breakers,vars,pprof}); empty = off")
		events    = flag.String("events", "", "append structured JSONL telemetry events to this file")
		slowRPC   = flag.Duration("slow-rpc", 0, "count and record outgoing calls at or above this round-trip latency (0 = off)")
		histInt   = flag.Duration("history-interval", 2*time.Second, "sampling interval of the in-memory metrics history ring served as the history column of KindObserve and at /debug/observe?ask=history (0 = history off)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logJSON   = flag.Bool("log-json", false, "log in JSON instead of text")
	)
	flag.Parse()

	logger, err := newLogger(*logLevel, *logJSON, *id)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgridnode: %v\n", err)
		os.Exit(2)
	}
	// flushEvents writes the JSONL buffer through, surfacing the sink's
	// sticky write error. Installed below when -events is set; called on
	// every exit path (including fatal) so the tail of the event stream is
	// never lost to process death.
	flushEvents := func() {}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		flushEvents()
		os.Exit(1)
	}

	if *id < 0 || *listen == "" || (*peers == "" && *peersFile == "") {
		flag.Usage()
		os.Exit(2)
	}
	endpoints, err := parseEndpoints(*peers, *peersFile)
	if err != nil {
		fatal("bad endpoint table", err)
	}
	if _, ok := endpoints[addr.Addr(*id)]; !ok {
		fatal("configuration", fmt.Errorf("own id %d not present in the endpoint table", *id))
	}
	if *seed == 0 {
		*seed = mixSeed(time.Now().UnixNano(), *id)
	}
	logger.Info("starting", "seed", *seed)

	tel := telemetry.New(*id)
	tel.EnableExemplars(exemplarQuantile)
	if *events != "" {
		f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal("open events file", err)
		}
		defer f.Close()
		sink := telemetry.NewJSONLSink(f)
		tel.SetSink(sink)
		flushEvents = func() {
			if err := sink.Flush(); err != nil {
				logger.Error("flushing events failed", "err", err)
			}
		}
	}

	if *timeout <= 0 {
		fatal("configuration", fmt.Errorf("-timeout %v must be positive", *timeout))
	}
	if *retries < 1 {
		fatal("configuration", fmt.Errorf("-retries %d must be at least 1", *retries))
	}
	pool, rt := outgoing(endpoints, *timeout, *retries, *seed, tel)
	defer pool.Close()
	var others []addr.Addr
	for a := range endpoints {
		if a != addr.Addr(*id) {
			others = append(others, a)
		}
	}
	cfg := core.Config{MaxL: *maxl, RefMax: *refmax, RecMax: *recmax, RecFanout: *fanout}
	if err := cfg.Validate(); err != nil {
		fatal("configuration", err)
	}
	var slowRec *trace.Recorder
	if *slowRPC > 0 {
		slowRec = trace.NewRecorder(256)
	}
	n := node.New(addr.Addr(*id), cfg, node.InstrumentTransportSlow(rt, tel, *slowRPC, slowRec), *seed)
	n.SetTelemetry(tel)
	n.EnableTracing(trace.NewRecorder(traceBuf), traceSample)
	n.EnableHealth()
	if *healthMin < 0 || *healthMin > 1 {
		fatal("configuration", fmt.Errorf("-health-min-liveness %v out of [0,1]", *healthMin))
	}
	// The repairer must attach before the node starts serving (the field
	// is read by the wire handler unsynchronized); its loop starts with
	// the other background loops below.
	var repairer *node.Repairer
	if *repairInt > 0 {
		repairer = node.NewRepairer(n, *repairInt, *seed+3)
	}

	if *stateFile != "" {
		loaded, err := n.LoadStateFile(*stateFile)
		if err != nil {
			fatal("load state", err)
		}
		if loaded {
			logger.Info("restored state", "file", *stateFile, "path", n.Path().String(), "entries", n.Store().Len())
		}
	}

	var hist *telemetry.History
	if *histInt > 0 {
		if *histInt > historyWindow {
			fatal("configuration", fmt.Errorf("-history-interval %v must not exceed the %v history window", *histInt, historyWindow))
		}
		hist = telemetry.NewHistory(*histInt, historyWindow)
		n.EnableHistory(hist)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal("listen", err)
	}
	srv := node.NewServer(n, ln)
	logger.Info("listening", "addr", ln.Addr().String(), "peers", len(others))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serving := &atomic.Bool{}
	if *admin != "" {
		aln, err := net.Listen("tcp", *admin)
		if err != nil {
			fatal("admin listen", err)
		}
		asrv := &http.Server{Handler: newAdminMux(n, tel, serving, *healthMin, rt, slowRec)}
		go asrv.Serve(aln)
		go func() {
			<-ctx.Done()
			asrv.Close()
		}()
		logger.Info("admin listening", "addr", aln.Addr().String())
	}

	if *meet > 0 && len(others) > 0 {
		go node.NewGossiper(n, others, *meet, *seed+1).Run(ctx)
	}
	if *status > 0 {
		go statusLoop(ctx, logger, n, *status)
	}
	if *stateFile != "" {
		go checkpointLoop(ctx, logger, n, *stateFile, saveEvery)
	}
	if *repairInt > 0 {
		go repairer.Run(ctx)
	}
	if hist != nil {
		go n.RunSampler(ctx)
	}

	serving.Store(true)
	srv.Serve(ctx)
	serving.Store(false)
	if *stateFile != "" {
		if err := n.SaveStateFile(*stateFile); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		}
	}
	flushEvents()
	logger.Info("shut down", "path", n.Path().String())
}

// Settings every node runs at: no deployment changes them, so they are not
// flags (DESIGN says why each has its value). The pool size and idle reap,
// the first backoff and the breaker cooldown are the library defaults.
const (
	retryBudget      = 0.1              // retry tokens earned per call: retries stay near a tenth of call volume
	breakerFails     = 5                // consecutive failures that open a peer's breaker
	traceBuf         = 256              // flight-recorder capacity, in traces
	traceSample      = 0.01             // share of locally issued queries traced end to end
	historyWindow    = 5 * time.Minute  // depth of the metrics history ring
	exemplarQuantile = 0.99             // latency buckets at or above it keep trace-id exemplars
	saveEvery        = 30 * time.Second // state checkpoint interval with -state
)

// outgoing builds the stack under every outgoing call: the pool, bounding
// each attempt's dial and round trip by timeout, under retries, the retry
// budget and per-peer breakers. The instrumented transport main stacks on
// top counts each logical call once. A breaker opening evicts the peer's
// pooled connections, so the half-open probe decides on a fresh dial.
func outgoing(endpoints map[addr.Addr]string, timeout time.Duration, retries int, seed int64, tel *telemetry.Instruments) (*node.PoolTransport, *resilience.ResilientTransport) {
	pool := node.NewPoolTransport(node.PoolConfig{DialTimeout: timeout, IOTimeout: timeout})
	pool.SetTelemetry(tel)
	for a, ep := range endpoints {
		pool.SetEndpoint(a, ep)
	}
	rt := resilience.Wrap(pool, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: retries},
		Budget:   resilience.NewBudget(retryBudget, 0),
		Breaker:  resilience.BreakerConfig{Threshold: breakerFails},
		Classify: node.Classify,
		Seed:     seed,
		Tel:      tel,
		OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
			if to == resilience.StateOpen {
				pool.Evict(peer)
			}
		},
	})
	return pool, rt
}

// newLogger builds the process logger: slog at the requested level, text or
// JSON, with the node id on every record.
func newLogger(level string, json bool, id int) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if json {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h).With("node", id), nil
}

// mixSeed derives the effective seed from the clock and the node id with a
// splitmix64 round (trace.Mix64, the same mixing trace ids use). The id
// perturbs the input and the mix spreads it over all 64 bits, so nodes
// launched in the same instant (a script starting a whole community) still
// get unrelated RNG streams — the previous `time ^ id<<32` left the low
// bits identical across such nodes.
func mixSeed(t int64, id int) int64 {
	return int64(trace.Mix64(uint64(t) + 0x9e3779b97f4a7c15*(uint64(id)+1)))
}

func statusLoop(ctx context.Context, logger *slog.Logger, n *node.Node, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			exchanges, queries, wireErrors := n.Telemetry().Totals()
			logger.Info("status",
				"path", n.Path().String(),
				"entries", n.Store().Len(),
				"exchanges", exchanges,
				"queries", queries,
				"wire_errors", wireErrors)
		}
	}
}

func checkpointLoop(ctx context.Context, logger *slog.Logger, n *node.Node, path string, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := n.SaveStateFile(path); err != nil {
				logger.Error("checkpoint failed", "err", err)
			}
		}
	}
}

// parseEndpoints reads the endpoint table (node.ParseEndpoints) from -peers
// or from -peers-file, never both.
func parseEndpoints(inline, file string) (map[addr.Addr]string, error) {
	if inline != "" && file != "" {
		return nil, fmt.Errorf("-peers and -peers-file both given: name the community once")
	}
	if file == "" {
		return node.ParseEndpoints(inline)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return node.ParseEndpoints(string(b))
}
