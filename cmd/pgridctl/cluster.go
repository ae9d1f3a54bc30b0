package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// runCluster crawls the community from one entry peer, federates every
// reachable node's metrics snapshot, and prints the cluster report —
// merged quantiles, RED rollups, top-K offenders, and SLO verdicts.
// count == 1 prints one plain frame (script-friendly, the default);
// count <= 0 refreshes forever at the given interval. jsonOut emits one
// JSON object per frame instead of the text report. A one-shot run
// exits nonzero when no peer answered at all.
func runCluster(client *node.Client, id addr.Addr, objectives []slo.Objective, interval time.Duration, count int, jsonOut bool) {
	enc := json.NewEncoder(os.Stdout)
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		res := client.Walk(id, wire.ObserveReq{Asks: wire.AskMetrics | wire.AskHealth | wire.AskLiveness})
		rep := analysis.AnalyzeCluster(res.Snapshots, res.Digests, res.Unreachable, objectives)
		if jsonOut {
			err := enc.Encode(map[string]any{
				"from":     id,
				"at":       time.Now(),
				"messages": res.Messages,
				"digests":  len(res.Digests),
				"report":   rep,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "pgridctl:", err)
				os.Exit(1)
			}
		} else {
			if count != 1 {
				fmt.Print("\x1b[H\x1b[2J")
				fmt.Printf("cluster from node %v · %s\n", id, time.Now().Format("15:04:05"))
			}
			fmt.Printf("collected %d peers from node %v (%d messages, %d census digests)\n",
				rep.Peers, id, res.Messages, len(res.Digests))
			analysis.RenderClusterReport(os.Stdout, rep)
		}
		if count == 1 && rep.Peers == 0 {
			os.Exit(1)
		}
	}
}

// fetchClusterStats is the cluster twin of fetchStats: it collects every
// reachable peer's snapshot and flattens them into one map — so renderTop
// draws a whole community exactly like a single node.
func fetchClusterStats(client *node.Client, id addr.Addr) (statMap, error) {
	snaps := client.Walk(id, wire.ObserveReq{Asks: wire.AskMetrics}).Snapshots
	if len(snaps) == 0 {
		return nil, fmt.Errorf("no peer reachable from node %v answered the metrics frame", id)
	}
	return flattenSnapshots(snaps), nil
}

// flattenSnapshots folds the metrics snapshots of one node or of every
// peer into one stats map: it sums the flat counters, merges the quantile
// histograms bucket-wise, and renders the merged quantiles under the
// series names /metrics uses.
func flattenSnapshots(snaps map[addr.Addr]telemetry.MetricsSnapshot) statMap {
	m := make(statMap)
	hists := make(map[string]telemetry.QHistSnapshot)
	for _, snap := range snaps {
		for _, s := range snap.Stats {
			m[s.Name] += s.Value
		}
		for _, h := range snap.Hists {
			merged, err := telemetry.MergeQHist(hists[h.Name], h)
			if err != nil {
				continue // geometry skew from a foreign build: skip the peer's hist
			}
			hists[h.Name] = merged
		}
	}
	for name, h := range hists {
		if h.Count == 0 {
			continue
		}
		qs := h.Quantiles(telemetry.QuantilePoints...)
		for i, q := range []string{"0.5", "0.95", "0.99", "0.999"} {
			m[withQuantile(name, q)] = qs[i]
		}
	}
	return m
}

// withQuantile appends a quantile label to a possibly-already-labeled
// series name, matching how the node's own stats snapshot renders its
// histograms: `m{kind="query"}` → `m{kind="query",quantile="0.5"}`.
func withQuantile(name, q string) string {
	if len(name) > 0 && name[len(name)-1] == '}' {
		return name[:len(name)-1] + `,quantile=` + strconv.Quote(q) + `}`
	}
	return name + `{quantile=` + strconv.Quote(q) + `}`
}
