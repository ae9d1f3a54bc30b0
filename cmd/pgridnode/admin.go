package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"sync/atomic"

	"pgrid/internal/analysis"
	"pgrid/internal/health"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// newAdminMux builds the opt-in admin HTTP surface (-admin):
//
//	/metrics        Prometheus text exposition of the node's telemetry
//	/healthz        200 once the wire server is accepting; 503 before,
//	                and 503 while the worst per-level reference liveness
//	                sits below minLiveness (0 disables the check)
//	/debug/observe  the node's answer to an observe request, the one a
//	                peer's KindObserve gets: ?ask=health,liveness,traces,
//	                repair,history names the columns, ?limit=N caps both
//	                the history points and the traces, ?window=DUR bounds
//	                the history
//	/debug/slow     the slow-op log (-slow-rpc): over-threshold RPCs with
//	                their span context (?limit=N caps the count)
//	/debug/breakers the per-peer circuit breakers of the outgoing transport
//	/debug/vars     the standard expvar handler (Go runtime memstats)
//	/debug/pprof/   the standard pprof handlers
//
// The three /debug views go through debugView: JSON by default,
// ?format=text for the human rendering. The mux is self-contained (nothing
// is registered on http.DefaultServeMux), so tests can build several
// independent instances. rt may be nil (a test without the resilient
// transport); /debug/breakers then reports an empty set. slowRec may be nil
// (no -slow-rpc threshold); /debug/slow then reports an empty log.
func newAdminMux(n *node.Node, tel *telemetry.Instruments, serving *atomic.Bool, minLiveness float64, rt *resilience.ResilientTransport, slowRec *trace.Recorder) *http.ServeMux {
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
	debugView(mux, "/debug/observe", func(q url.Values) (any, func(io.Writer), error) {
		req, err := wire.ParseObserve(q)
		if err != nil {
			return nil, nil, err
		}
		if req.Asks&adminRefused != 0 {
			return nil, nil, errors.New("links, metrics and repair-now are not served here: /metrics serves the metrics, " +
				"a GET runs no repair round, and `pgridctl observe <id> <query>` asks a peer for any of them")
		}
		o := n.Observe(&req)
		return o, func(w io.Writer) { analysis.RenderObserve(w, n.Addr(), o, 0, nil) }, nil
	})
	debugView(mux, "/debug/slow", func(q url.Values) (any, func(io.Writer), error) {
		limit, err := queryLimit(q)
		if err != nil {
			return nil, nil, err
		}
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
		}, nil
	})
	debugView(mux, "/debug/breakers", func(url.Values) (any, func(io.Writer), error) {
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
		}, nil
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// debugView serves one /debug/* view. The view reads its query; an error it
// returns refuses the request with a 400. ?format=text picks the view's text
// rendering over its JSON envelope.
func debugView(mux *http.ServeMux, path string, view func(q url.Values) (envelope any, text func(io.Writer), err error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		envelope, text, err := view(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			text(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(envelope)
	})
}

// queryLimit reads ?limit=N: absent is 0 (no cap), negative or unparsable is
// refused.
func queryLimit(q url.Values) (int, error) {
	s := q.Get("limit")
	if s == "" {
		return 0, nil
	}
	limit, err := strconv.Atoi(s)
	if err != nil || limit < 0 {
		return 0, fmt.Errorf("bad limit %q", s)
	}
	return limit, nil
}

// adminRefused are the asks of the observe grammar that /debug/observe
// refuses: /metrics serves the metrics, a GET runs no repair round, and the
// links are read over the wire (`pgridctl observe <id> ask=links`).
const adminRefused = wire.AskLinks | wire.AskMetrics | wire.AskRepairNow
