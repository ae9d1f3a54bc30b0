package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/health"
	"pgrid/internal/node"
	"pgrid/internal/repair"
	"pgrid/internal/resilience"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// newAdminMux builds the opt-in admin HTTP surface (-admin):
//
//	/metrics        Prometheus text exposition of the node's telemetry
//	/healthz        200 once the wire server is accepting; 503 before,
//	                and 503 while the worst per-level reference liveness
//	                sits below minLiveness (0 disables the check)
//	/debug/health   the node's replica digest and per-level liveness
//	/debug/traces   the flight recorder: recent sampled query routes
//	                (?limit=N caps the count)
//	/debug/repair   the self-healing repairer (-repair-interval): rounds,
//	                per-class fault and heal tallies, and the healthy/
//	                repairing/stuck verdict ("repair disabled" without one)
//	/debug/lat      per-kind RPC latency quantiles (p50/p95/p99/p999)
//	/debug/slow     the slow-op log (-slow-rpc): over-threshold RPCs with
//	                their span context (?limit=N caps the count)
//	/debug/slo      the burn-rate engine (-slo): per-objective budget burn
//	                over the 5m and 1h windows with breach verdicts
//	/debug/history  the metrics history ring (-history-interval): the raw
//	                snapshot series, as text the sparkline trend rendering
//	                (?window=30s narrows the span, ?limit=N caps the points)
//	/debug/breakers the per-peer circuit breakers of the outgoing transport
//	/debug/vars     expvar (includes the pgrid counter snapshot)
//	/debug/pprof/   the standard pprof handlers
//
// The eight views from /debug/health to /debug/breakers go through
// debugView: JSON by default, ?format=text for the human rendering.
// The mux is self-contained (nothing is registered on
// http.DefaultServeMux), so tests can build several independent instances.
// rt may be nil (a test without the resilient transport); /debug/breakers
// then reports an empty set. slowRec may be nil (no -slow-rpc threshold);
// /debug/slow then reports an empty log. eng may be nil (no -slo
// objectives); /debug/slo then reports an empty report. hist may be nil
// (no -history-interval); /debug/history then reports an empty dump.
func newAdminMux(n *node.Node, tel *telemetry.Instruments, serving *atomic.Bool, minLiveness float64, rt *resilience.ResilientTransport, slowRec *trace.Recorder, eng *slo.Engine, hist *telemetry.History) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		tel.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !serving.Load() {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		// Readiness follows the worst level: one fully-stale level makes
		// the node unable to route past it, however healthy the rest is.
		// Before the first probe round there is no data and no verdict.
		if minLiveness > 0 {
			if worst, ok := health.MinLevelRatio(n.HealthTracker().Snapshot()); ok && worst < minLiveness {
				http.Error(w, fmt.Sprintf("degraded: worst level liveness %.2f < %.2f", worst, minLiveness),
					http.StatusServiceUnavailable)
				return
			}
		}
		fmt.Fprintf(w, "ok path=%s entries=%d\n", n.Path(), n.Store().Len())
	})
	debugView(mux, "/debug/health", func(int, time.Duration) (any, func(io.Writer)) {
		d := n.Digest()
		rounds := n.HealthTracker().Rounds()
		envelope := struct {
			Digest health.Digest `json:"digest"`
			Rounds int64         `json:"rounds"`
		}{d, rounds}
		return envelope, func(w io.Writer) {
			fmt.Fprintf(w, "%s rounds=%d\n", d, rounds)
			for _, lp := range d.Liveness {
				ratio, _ := lp.Ratio()
				fmt.Fprintf(w, "level %2d liveness %.2f (%d live / %d dead)\n",
					lp.Level, ratio, lp.Live, lp.Dead)
			}
		}
	})
	debugView(mux, "/debug/traces", func(limit int, _ time.Duration) (any, func(io.Writer)) {
		rec := n.Recorder()
		traces := rec.Snapshot(limit)
		envelope := struct {
			Total  uint64        `json:"total"`
			Traces []trace.Trace `json:"traces"`
		}{rec.Total(), traces}
		return envelope, func(w io.Writer) {
			for _, t := range traces {
				fmt.Fprintf(w, "%016x %s\n", t.TraceID, t)
			}
		}
	})
	debugView(mux, "/debug/repair", func(int, time.Duration) (any, func(io.Writer)) {
		st := n.Repairer().Status()
		return struct {
			Repair repair.Status `json:"repair"`
		}{st}, func(w io.Writer) { analysis.RenderRepairStatus(w, st) }
	})
	debugView(mux, "/debug/lat", func(int, time.Duration) (any, func(io.Writer)) {
		report := tel.LatencyReport()
		return struct {
			Latencies []telemetry.LatencySummary `json:"latencies"`
		}{report}, func(w io.Writer) { writeLatencyTable(w, report) }
	})
	debugView(mux, "/debug/slow", func(limit int, _ time.Duration) (any, func(io.Writer)) {
		slow := slowRec.Snapshot(limit)
		envelope := struct {
			Total uint64        `json:"total"`
			Slow  []trace.Trace `json:"slow"`
		}{slowRec.Total(), slow}
		return envelope, func(w io.Writer) {
			for _, t := range slow {
				for _, sp := range t.Spans {
					fmt.Fprintf(w, "%016x key=%s peer=%d %.3fms\n",
						t.TraceID, t.Key, sp.Peer, float64(sp.LatencyNS)/1e6)
				}
			}
		}
	})
	debugView(mux, "/debug/slo", func(int, time.Duration) (any, func(io.Writer)) {
		report := eng.Report()
		if report == nil {
			report = []slo.Status{}
		}
		return struct {
			Objectives []slo.Status `json:"objectives"`
		}{report}, func(w io.Writer) { writeSLOTable(w, report) }
	})
	debugView(mux, "/debug/history", func(limit int, window time.Duration) (any, func(io.Writer)) {
		dump := hist.Dump(window, limit) // nil-safe: empty schema-stamped dump
		envelope := struct {
			History telemetry.HistoryDump `json:"history"`
		}{dump}
		return envelope, func(w io.Writer) {
			analysis.RenderTrendReport(w, analysis.AnalyzeTrends(
				map[addr.Addr]telemetry.HistoryDump{n.Addr(): dump}, nil))
		}
	})
	debugView(mux, "/debug/breakers", func(int, time.Duration) (any, func(io.Writer)) {
		views := []resilience.BreakerView{}
		if rt != nil {
			views = rt.Breakers()
		}
		envelope := struct {
			Breakers []resilience.BreakerView `json:"breakers"`
		}{views}
		return envelope, func(w io.Writer) {
			fmt.Fprintf(w, "%-6s %-9s %6s %6s %s\n", "peer", "state", "fails", "opens", "retry_at")
			for _, v := range views {
				until := "-"
				if !v.Until.IsZero() {
					until = v.Until.Format("15:04:05.000")
				}
				fmt.Fprintf(w, "%-6v %-9s %6d %6d %s\n", v.Peer, v.State, v.Fails, v.Opens, until)
			}
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// debugView serves one /debug/* view. Every view takes the same query:
// ?limit=N and ?window=DUR select what the view reads (optional; a negative
// or unparsable one is a 400 on every view, whether it reads it or not), and
// ?format=text picks its text rendering over the JSON envelope.
func debugView(mux *http.ServeMux, path string, view func(limit int, window time.Duration) (envelope any, text func(io.Writer))) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var (
			limit  int
			window time.Duration
			err    error
		)
		if s := q.Get("limit"); s != "" {
			if limit, err = strconv.Atoi(s); err != nil || limit < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
		}
		if s := q.Get("window"); s != "" {
			if window, err = time.ParseDuration(s); err != nil || window < 0 {
				http.Error(w, "bad window", http.StatusBadRequest)
				return
			}
		}
		envelope, text := view(limit, window)
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			text(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(envelope)
	})
}

// writeLatencyTable renders a latency report as an aligned text table with
// quantiles in milliseconds.
func writeLatencyTable(w io.Writer, report []telemetry.LatencySummary) {
	fmt.Fprintf(w, "%-7s %-14s %10s %10s %10s %10s %10s\n",
		"scope", "kind", "count", "p50_ms", "p95_ms", "p99_ms", "p999_ms")
	for _, s := range report {
		fmt.Fprintf(w, "%-7s %-14s %10d %10.3f %10.3f %10.3f %10.3f\n",
			s.Scope, s.Kind, s.Count,
			float64(s.P50)/1e6, float64(s.P95)/1e6, float64(s.P99)/1e6, float64(s.P999)/1e6)
	}
}

// writeSLOTable renders the burn-rate report as an aligned text table:
// one row per objective and window.
func writeSLOTable(w io.Writer, report []slo.Status) {
	fmt.Fprintf(w, "%-24s %-6s %10s %10s %8s %10s %s\n",
		"objective", "window", "good", "total", "bad%", "burn", "verdict")
	for _, s := range report {
		verdict := "ok"
		if s.Breached {
			verdict = "BREACHED"
		}
		for _, wb := range s.Windows {
			mark := ""
			if wb.Exceeded {
				mark = " !"
			}
			fmt.Fprintf(w, "%-24s %-6s %10d %10d %8.2f %10.2f %s%s\n",
				s.Spec, wb.Window, wb.Good, wb.Total, 100*wb.BadFrac, wb.Burn, verdict, mark)
		}
	}
}

// expvar.Publish panics on duplicate names, and its registry is global, so
// the published variable reads through an atomic pointer that later
// instances (tests build several) swap to their own bundle.
var (
	expvarTel  atomic.Pointer[telemetry.Instruments]
	expvarOnce sync.Once
)

// publishExpvar exposes tel's counter snapshot as the expvar "pgrid" map.
func publishExpvar(tel *telemetry.Instruments) {
	expvarTel.Store(tel)
	expvarOnce.Do(func() {
		expvar.Publish("pgrid", expvar.Func(func() any {
			out := make(map[string]int64)
			for _, s := range expvarTel.Load().Registry().Snapshot() {
				out[s.Name] = s.Value
			}
			return out
		}))
	})
}
