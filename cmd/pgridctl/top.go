package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// runTop polls a stats source and renders a refreshing terminal summary:
// request rates, error counts, per-kind latency quantiles, and pool and
// breaker state. count == 1 prints a single frame without clearing the
// screen (script-friendly); count <= 0 runs until killed. jsonOut swaps
// the terminal view for one JSON object per frame.
//
// Everything shown is computed from two consecutive snapshots of the same
// data /metrics exposes, so top works against any node, with no extra
// protocol.
func runTop(client *node.Client, id addr.Addr, interval time.Duration, count int, jsonOut bool) {
	scope := fmt.Sprintf("node %v", id)
	var prev statMap
	var prevAt time.Time
	enc := json.NewEncoder(os.Stdout)
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := fetchStats(client, id)
		if err != nil {
			log.Fatal(err)
		}
		now := time.Now()
		if jsonOut {
			if err := enc.Encode(topFrame(scope, now, cur, prev, now.Sub(prevAt))); err != nil {
				log.Fatal(err)
			}
		} else {
			if count != 1 {
				fmt.Print("\x1b[H\x1b[2J") // cursor home + clear: redraw in place
			}
			renderTop(os.Stdout, scope, now, cur, prev, now.Sub(prevAt))
		}
		prev, prevAt = cur, now
	}
}

// statsReset reports whether the previous snapshot is a stale baseline
// for rate math. The primary signal is the start-epoch gauge: it changes
// exactly when a node restarts — catching even restarts whose new counters
// overshoot the old values. Snapshots from pre-epoch peers (both epochs
// zero) fall back to the per-counter rewind check at each use site.
func statsReset(cur, prev statMap) bool {
	if prev == nil {
		return false
	}
	ce, pe := cur[telemetry.StatStartEpoch], prev[telemetry.StatStartEpoch]
	return (ce != 0 || pe != 0) && ce != pe
}

// topFrame builds the JSON form of one top refresh: the raw stats plus
// the derived per-second rates for every counter series (quantile and
// gauge series carry no rate). On a reset frame rates are omitted — the
// baseline is from another incarnation.
func topFrame(scope string, now time.Time, cur, prev statMap, dt time.Duration) map[string]any {
	frame := map[string]any{
		"scope": scope,
		"at":    now,
		"stats": cur,
	}
	reset := statsReset(cur, prev)
	frame["reset"] = reset
	if prev != nil && dt > 0 && !reset {
		rates := make(map[string]float64)
		for name, v := range cur {
			p, ok := prev[name]
			if !ok || v < p || !strings.Contains(name, "_total") {
				continue
			}
			rates[name] = float64(v-p) / dt.Seconds()
		}
		frame["rates"] = rates
	}
	return frame
}

// statMap is one stats snapshot: flattened series name → value.
type statMap map[string]int64

func fetchStats(client *node.Client, id addr.Addr) (statMap, error) {
	o, err := client.Observe(id, wire.ObserveReq{Asks: wire.AskMetrics})
	if err != nil {
		return nil, err
	}
	return analysis.FlattenSnapshot(*o.Metrics), nil
}

func renderTop(w io.Writer, scope string, now time.Time, cur, prev statMap, dt time.Duration) {
	reset := statsReset(cur, prev)
	rate := func(name string) string {
		if prev == nil || dt <= 0 {
			return "-"
		}
		if reset || cur[name] < prev[name] {
			// The start epoch changed — the node restarted — or (pre-epoch
			// peers only) the counter went backward. Either way a delta
			// against the stale baseline would lie, so say so instead.
			return "reset"
		}
		return fmt.Sprintf("%.1f/s", float64(cur[name]-prev[name])/dt.Seconds())
	}

	fmt.Fprintf(w, "%s · %s\n", scope, now.Format("15:04:05"))
	fmt.Fprintf(w, "served %d (%s)  client %d (%s)  exchanges %d (%s)  queries %d (%s)\n",
		cur["pgrid_rpc_served_total"], rate("pgrid_rpc_served_total"),
		cur["pgrid_rpc_client_total"], rate("pgrid_rpc_client_total"),
		cur["pgrid_exchange_total"], rate("pgrid_exchange_total"),
		cur["pgrid_query_total"], rate("pgrid_query_total"))
	fmt.Fprintf(w, "errors client %d (%s)  served %d  slow %d\n",
		cur["pgrid_rpc_client_errors_total"], rate("pgrid_rpc_client_errors_total"),
		cur["pgrid_rpc_served_errors_total"],
		cur["pgrid_rpc_slow_total"])
	fmt.Fprintln(w)

	renderKindTable(w, "client rpc latency", cur, prev, dt, reset,
		"pgrid_rpc_client_kind_total", "pgrid_rpc_kind_latency_ns")
	renderKindTable(w, "served rpc latency", cur, prev, dt, reset,
		"pgrid_rpc_served_kind_total", "pgrid_rpc_served_latency_ns")

	fmt.Fprintf(w, "pool   open %d  in-flight %d  queue %d  dials %d  reuses %d (%s)  acquire p50 %s p99 %s\n",
		cur["pgrid_pool_conns_open"], cur["pgrid_pool_requests_in_flight"],
		cur["pgrid_pool_queue_depth"], cur["pgrid_pool_dials_total"],
		cur["pgrid_pool_reuses_total"], rate("pgrid_pool_reuses_total"),
		ms(cur[`pgrid_pool_acquire_wait_ns{quantile="0.5"}`]),
		ms(cur[`pgrid_pool_acquire_wait_ns{quantile="0.99"}`]))
	fmt.Fprintf(w, "breakers  open %d  half-open %d  fast-fails %d  retries %d (%s)\n",
		cur["pgrid_resilience_breakers_open"], cur["pgrid_resilience_breakers_half_open"],
		cur["pgrid_resilience_breaker_fastfail_total"],
		cur["pgrid_resilience_retries_total"], rate("pgrid_resilience_retries_total"))
}

// renderKindTable prints one quantile table, kinds in wire order so rows
// keep their position between refreshes. Kinds without traffic are
// omitted.
func renderKindTable(w io.Writer, title string, cur, prev statMap, dt time.Duration, reset bool, countFamily, latFamily string) {
	type row struct {
		kind string
		n    int64
		rate string
		q    [4]string
	}
	var rows []row
	for _, kind := range wire.KindNames() {
		if strings.HasPrefix(kind, "kind(") {
			continue
		}
		n := cur[countFamily+`{kind=`+strconv.Quote(kind)+`}`]
		if n == 0 {
			continue
		}
		r := row{kind: kind, n: n, rate: "-"}
		if prev != nil && dt > 0 {
			if pn := prev[countFamily+`{kind=`+strconv.Quote(kind)+`}`]; reset || n < pn {
				r.rate = "reset" // epoch changed (or counter rewound): restart, not load
			} else {
				r.rate = fmt.Sprintf("%.1f", float64(n-pn)/dt.Seconds())
			}
		}
		for i, q := range []string{"0.5", "0.95", "0.99", "0.999"} {
			r.q[i] = ms(cur[latFamily+`{kind=`+strconv.Quote(kind)+`,quantile=`+strconv.Quote(q)+`}`])
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-22s %10s %8s %9s %9s %9s %9s\n",
		title, "count", "rate/s", "p50", "p95", "p99", "p999")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %10d %8s %9s %9s %9s %9s\n",
			r.kind, r.n, r.rate, r.q[0], r.q[1], r.q[2], r.q[3])
	}
	fmt.Fprintln(w)
}

// ms renders nanoseconds as milliseconds with enough precision for
// sub-millisecond RPCs.
func ms(ns int64) string {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}
