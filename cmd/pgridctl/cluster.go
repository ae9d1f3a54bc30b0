package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/slo"
	"pgrid/internal/wire"
)

// clusterFrame is one collection of `pgridctl cluster`: the report of the
// community walk over every reached peer's history window, with what the
// walk found breaking the community's own invariants. Unlisted holds the
// -peers entries the walk neither reached nor found unreachable: no reached
// peer references them.
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
// history, health, liveness and repair, and checks the walk against the
// -peers list all.
func collectCluster(client *node.Client, id addr.Addr, all []addr.Addr, objectives []slo.Objective) clusterFrame {
	res := client.Walk(id, wire.ObserveReq{Asks: wire.AskHistory | wire.AskHealth | wire.AskLiveness | wire.AskRepair})
	f := clusterFrame{From: id, At: time.Now(), Messages: res.Messages, Reached: len(res.Reached),
		Digests: len(res.Digests), Violations: res.Violations,
		Report: analysis.AnalyzeCluster(res.Dumps, res.Digests, res.Unreachable, objectives)}
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

// print writes the frame as cluster's text view: the walk, every unreachable
// peer, unlisted peer and violation, then the report — RED rollups, the
// windowed trends, per-kind rows and SLO verdicts, top-K offenders, the
// structural and repair census.
func (f clusterFrame) print(w io.Writer) {
	fmt.Fprintf(w, "crawled %d peers from node %v (%d messages)\n", f.Reached, f.From, f.Messages)
	for _, a := range f.Report.Unreachable {
		fmt.Fprintf(w, "  unreachable: %v\n", a)
	}
	for _, a := range f.Unlisted {
		fmt.Fprintf(w, "  unlisted: %v (in -peers, referenced by no reached peer)\n", a)
	}
	for _, v := range f.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	analysis.RenderClusterReport(w, f.Report)
}
