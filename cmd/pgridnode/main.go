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
// /metrics, /healthz, /debug/health, /debug/breakers, /debug/vars, and
// /debug/pprof live. Outgoing calls go through a resilient transport:
// -retries attempts with jittered exponential backoff from -retry-base,
// globally bounded by the -retry-budget token bucket, behind per-peer
// circuit breakers (-breaker-fails, -breaker-cooldown).
// With -repair-interval the node runs the self-healing repair protocol, its
// one background reference-maintenance loop: every round probes the
// references and detects structural faults (invariant-violating or dead
// references, path drift, diverged or orphaned replicas, orphaned entries),
// heals them within -repair-budget messages, and reports through the
// pgrid_repair_* series, /debug/repair, and `pgridctl repair`; the probes
// also feed the health digest, the pgrid_health_* gauges, and the
// -health-min-liveness readiness check. With -events the
// node appends one JSON line per exchange/query/RPC to a file, in the same
// schema pgridsim -events writes; each line is encoded synchronously into
// a buffer that is written through as it fills and flushed on exit. With
// -slow-rpc any outgoing call over the threshold is counted, and recorded
// with its span context into a dedicated flight recorder served at
// /debug/slow; per-kind latency quantiles are live at /debug/lat. With
// -history-interval the node runs its one metrics sampler: each tick takes
// one snapshot of every series into a fixed-memory ring (-history-window
// deep), served at /debug/history and to `pgridctl watch` over the wire;
// -exemplar-quantile links tail latency buckets to flight-recorder traces
// via trace-id exemplars. With -slo the same snapshot also feeds a
// multi-window burn-rate engine tracking latency objectives
// ("query:p99:5ms,...") whose verdicts are served at /debug/slo.
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
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/slo"
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
		saveEvery = flag.Duration("save-every", 30*time.Second, "state checkpoint interval when -state is set")
		dialTO    = flag.Duration("dial-timeout", 3*time.Second, "TCP connect timeout per outgoing call")
		ioTO      = flag.Duration("io-timeout", 3*time.Second, "request/response timeout per outgoing call, started after the dial")
		poolSize  = flag.Int("pool-size", 2, "cap on pooled connections per peer (at least 1); a second is dialled only when the first is saturated")
		poolIdle  = flag.Duration("pool-idle", 60*time.Second, "close pooled connections idle this long")
		retries   = flag.Int("retries", 3, "max attempts per outgoing call (1 = no retries)")
		retryBase = flag.Duration("retry-base", 25*time.Millisecond, "base retry backoff (doubles per retry, jittered)")
		retryBud  = flag.Float64("retry-budget", 0.1, "retry tokens earned per call; bounds retries to this fraction of call volume (0 = unlimited)")
		brkFails  = flag.Int("breaker-fails", 5, "consecutive failures that open a peer's circuit breaker (0 = breakers off)")
		brkCool   = flag.Duration("breaker-cooldown", 2*time.Second, "how long an open breaker waits before probing the peer again")
		repairInt = flag.Duration("repair-interval", 0, "interval between self-healing repair rounds, jittered ±25% (0 = off)")
		repairBud = flag.Int("repair-budget", 64, "max repair messages per round when -repair-interval is set")
		healthMin = flag.Float64("health-min-liveness", 0, "/healthz reports 503 while the worst per-level reference liveness is below this (0 = disabled)")
		admin     = flag.String("admin", "", "admin HTTP listen address (/metrics, /healthz, /debug/{vars,pprof}); empty = off")
		events    = flag.String("events", "", "append structured JSONL telemetry events to this file")
		slowRPC   = flag.Duration("slow-rpc", 0, "count and record outgoing calls at or above this round-trip latency (0 = off)")
		sloSpecs  = flag.String("slo", "", "latency SLOs to track: kind:pNN:threshold,... e.g. query:p99:5ms (burn rates at /debug/slo, sampled every -history-interval; empty = off)")
		traceBuf  = flag.Int("trace-buf", 256, "flight-recorder capacity in traces (0 = tracing off)")
		traceProb = flag.Float64("trace-sample", 0.01, "probability a locally issued query is sampled for distributed tracing")
		histInt   = flag.Duration("history-interval", 2*time.Second, "sampling interval of the in-memory metrics history ring served at /debug/history and as the history column of KindObserve (0 = history off)")
		histWin   = flag.Duration("history-window", 5*time.Minute, "retention of the metrics history ring when -history-interval is set")
		exemplarQ = flag.Float64("exemplar-quantile", 0.99, "latency buckets at/above this tail quantile capture trace-id exemplars linking slow buckets to flight-recorder traces (0 = off)")
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

	if *id < 0 || *listen == "" || (*peers == "" && *peersFile == "") || *poolSize < 1 {
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
	if *exemplarQ < 0 || *exemplarQ >= 1 {
		fatal("configuration", fmt.Errorf("-exemplar-quantile %v out of [0,1)", *exemplarQ))
	}
	if *exemplarQ > 0 {
		tel.EnableExemplars(*exemplarQ)
	}
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

	pool := node.NewPoolTransport(node.PoolConfig{
		DialTimeout: *dialTO,
		IOTimeout:   *ioTO,
		Size:        *poolSize,
		IdleTimeout: *poolIdle,
	})
	pool.SetTelemetry(tel)
	defer pool.Close()
	var others []addr.Addr
	for a, ep := range endpoints {
		pool.SetEndpoint(a, ep)
		if a != addr.Addr(*id) {
			others = append(others, a)
		}
	}
	if *retries < 1 {
		fatal("configuration", fmt.Errorf("-retries %d must be at least 1", *retries))
	}
	if *retryBud < 0 {
		fatal("configuration", fmt.Errorf("-retry-budget %v must not be negative", *retryBud))
	}
	var budget *resilience.Budget
	if *retryBud > 0 {
		budget = resilience.NewBudget(*retryBud, 0)
	}
	// The resilient layer sits between the pooled transport and the
	// instrumented one: retries, the retry budget, and per-peer breakers
	// apply to every outgoing call, and the instrument layer above counts
	// each logical call once (the resilience layer exports its own
	// pgrid_resilience_* series for the attempts underneath). A breaker
	// opening evicts the peer's pooled connections — a peer judged
	// unhealthy keeps no warm sockets, and the half-open probe decides
	// afresh on a new dial.
	rt := resilience.Wrap(pool, resilience.Options{
		Retry:    resilience.Policy{MaxAttempts: *retries, BaseDelay: *retryBase},
		Budget:   budget,
		Breaker:  resilience.BreakerConfig{Threshold: *brkFails, Cooldown: *brkCool},
		Classify: node.Classify,
		Seed:     *seed,
		Tel:      tel,
		OnPeerState: func(peer addr.Addr, from, to resilience.BreakerState) {
			if to == resilience.StateOpen {
				pool.Evict(peer)
			}
		},
	})
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
	if *traceBuf > 0 {
		n.EnableTracing(trace.NewRecorder(*traceBuf), *traceProb)
	}
	n.EnableHealth()
	if *healthMin < 0 || *healthMin > 1 {
		fatal("configuration", fmt.Errorf("-health-min-liveness %v out of [0,1]", *healthMin))
	}
	// The repairer must attach before the node starts serving (the field
	// is read by the wire handler unsynchronized); its loop starts with
	// the other background loops below.
	var repairer *node.Repairer
	if *repairInt > 0 {
		if *repairBud <= 0 {
			fatal("configuration", fmt.Errorf("-repair-budget %d must be positive", *repairBud))
		}
		repairer = node.NewRepairer(n, *repairInt, node.RepairConfig{Budget: *repairBud}, *seed+3)
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
		if *histWin < *histInt {
			fatal("configuration", fmt.Errorf("-history-window %v shorter than -history-interval %v", *histWin, *histInt))
		}
		hist = telemetry.NewHistory(*histInt, *histWin)
		n.EnableHistory(hist)
	}

	var sloEng *slo.Engine
	if *sloSpecs != "" {
		objectives, err := slo.ParseList(*sloSpecs)
		if err != nil {
			fatal("configuration", err)
		}
		if hist == nil {
			fatal("configuration", fmt.Errorf("-slo needs -history-interval > 0 (got %v): the metrics sampler feeds the burn-rate engine one snapshot per -history-interval", *histInt))
		}
		sloEng = slo.NewEngine(objectives, nil)
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
		publishExpvar(tel)
		asrv := &http.Server{Handler: newAdminMux(n, tel, serving, *healthMin, rt, slowRec, sloEng, hist)}
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
		go checkpointLoop(ctx, logger, n, *stateFile, *saveEvery)
	}
	if *repairInt > 0 {
		go repairer.Run(ctx)
	}
	if hist != nil {
		go n.RunSampler(ctx, sloEng.Tick) // Tick is a no-op on the nil engine of a node without -slo
	}

	serving.Store(true)
	if err := srv.Serve(ctx); err != nil {
		fatal("serve", err)
	}
	serving.Store(false)
	if *stateFile != "" {
		if err := n.SaveStateFile(*stateFile); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		}
	}
	flushEvents()
	logger.Info("shut down", "path", n.Path().String())
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

// parseEndpoints reads the endpoint table: id=host:port pairs separated by
// commas and/or newlines. Files may use CRLF line endings and contain blank
// lines and # comments (full-line or trailing).
func parseEndpoints(inline, file string) (map[addr.Addr]string, error) {
	raw := inline
	if file != "" {
		b, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		raw = string(b)
	}
	out := make(map[addr.Addr]string)
	for _, line := range strings.Split(raw, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, pair := range strings.Split(line, ",") {
			pair = strings.TrimSpace(pair) // also trims the \r of CRLF files
			if pair == "" {
				continue
			}
			id, ep, ok := strings.Cut(pair, "=")
			if !ok {
				return nil, fmt.Errorf("bad endpoint %q (want id=host:port)", pair)
			}
			v, err := strconv.Atoi(strings.TrimSpace(id))
			if err != nil || v < 0 {
				return nil, fmt.Errorf("bad peer id %q", id)
			}
			out[addr.Addr(v)] = strings.TrimSpace(ep)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no endpoints given")
	}
	return out, nil
}
