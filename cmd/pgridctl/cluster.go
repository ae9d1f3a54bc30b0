package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/slo"
	"pgrid/internal/wire"
)

// clusterFrame is one collection of `pgridctl cluster`: the federated
// report of the community walk, with what the walk found breaking the
// community's own invariants. Unlisted holds the -peers entries the walk
// neither reached nor found unreachable: no reached peer references them.
type clusterFrame struct {
	From       addr.Addr              `json:"from"`
	At         time.Time              `json:"at"`
	Messages   int                    `json:"messages"`
	Reached    int                    `json:"reached"`
	Digests    int                    `json:"digests"`
	Unlisted   []addr.Addr            `json:"unlisted,omitempty"`
	Violations []node.Violation       `json:"violations,omitempty"`
	Report     analysis.ClusterReport `json:"report"`
}

// collectCluster walks the community from id, asking every peer its
// metrics, health, liveness and repair, and checks the walk against the
// -peers list all.
func collectCluster(client *node.Client, id addr.Addr, all []addr.Addr, objectives []slo.Objective) clusterFrame {
	res := client.Walk(id, wire.ObserveReq{Asks: wire.AskMetrics | wire.AskHealth | wire.AskLiveness | wire.AskRepair})
	f := clusterFrame{From: id, At: time.Now(), Messages: res.Messages, Reached: len(res.Reached),
		Digests: len(res.Digests), Violations: res.Violations,
		Report: analysis.AnalyzeCluster(res.Snapshots, res.Digests, res.Unreachable, objectives)}
	f.Report.Grid.AttachRepair(res.Repairs)
	for _, a := range all {
		if !slices.Contains(res.Reached, a) && !slices.Contains(res.Unreachable, a) {
			f.Unlisted = append(f.Unlisted, a)
		}
	}
	return f
}

// exitCode is a one-shot run's verdict on the frame: 1 when no peer
// answered, a peer is unreachable or unlisted, a reference breaks the
// Sec. 2 property, an objective is breached or repair is stuck; else 0.
func (f clusterFrame) exitCode() int {
	r := f.Report
	if r.Peers == 0 || len(r.Unreachable) > 0 || len(f.Unlisted) > 0 || len(f.Violations) > 0 ||
		r.Breached() || r.Grid.Repair.State == "stuck" {
		return 1
	}
	return 0
}

// runCluster collects and prints the cluster frame — merged quantiles,
// RED rollups, top-K offenders, SLO verdicts, the structural and repair
// census, and every unreachable peer, unlisted peer and violation.
// count == 1 prints one plain frame (script-friendly, the default) and
// exits with its exitCode; count <= 0 refreshes forever at the given
// interval. jsonOut emits one JSON object per frame instead of the text.
func runCluster(client *node.Client, id addr.Addr, all []addr.Addr, objectives []slo.Objective, interval time.Duration, count int, jsonOut bool) {
	enc := json.NewEncoder(os.Stdout)
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		f := collectCluster(client, id, all, objectives)
		if jsonOut {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, "pgridctl:", err)
				os.Exit(1)
			}
		} else {
			if count != 1 {
				fmt.Print("\x1b[H\x1b[2J")
				fmt.Printf("cluster from node %v · %s\n", id, f.At.Format("15:04:05"))
			}
			fmt.Printf("crawled %d peers from node %v (%d messages)\n", f.Reached, id, f.Messages)
			for _, a := range f.Report.Unreachable {
				fmt.Printf("  unreachable: %v\n", a)
			}
			for _, a := range f.Unlisted {
				fmt.Printf("  unlisted: %v (in -peers, referenced by no reached peer)\n", a)
			}
			for _, v := range f.Violations {
				fmt.Printf("  VIOLATION: %s\n", v)
			}
			analysis.RenderClusterReport(os.Stdout, f.Report)
		}
		if count == 1 {
			os.Exit(f.exitCode())
		}
	}
}
