package main

import (
	"fmt"
	"io"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/slo"
	"pgrid/internal/wire"
)

// watchFrame is one collection of `pgridctl watch`: the trend report
// federated from every reachable peer's history ring, with what the walk
// cost and whom it could not reach. `-json` emits one per line.
type watchFrame struct {
	From        addr.Addr            `json:"from"`
	At          time.Time            `json:"at"`
	Messages    int                  `json:"messages"`
	Unreachable []addr.Addr          `json:"unreachable,omitempty"`
	Report      analysis.TrendReport `json:"report"`
}

// collectWatch walks the community from id, asking every peer its history
// ring, and folds the rings into the windowed trend view: sparklines for RPC
// rate, error rate, served p99 and pool wait, the per-kind rows, anomaly
// findings and the objectives judged over the window. The rings live on the
// peers, so one frame already holds the whole window.
func collectWatch(client *node.Client, id addr.Addr, objectives []slo.Objective) watchFrame {
	res := client.Walk(id, wire.ObserveReq{Asks: wire.AskHistory})
	return watchFrame{From: id, At: time.Now(), Messages: res.Messages, Unreachable: res.Unreachable,
		Report: analysis.AnalyzeTrends(res.Dumps, objectives)}
}

// print writes the frame as watch's text view.
func (f watchFrame) print(w io.Writer) {
	fmt.Fprintf(w, "crawled %d peers from node %v (%d messages)\n", f.Report.Peers, f.From, f.Messages)
	analysis.RenderTrendReport(w, f.Report)
	for _, a := range f.Unreachable {
		fmt.Fprintf(w, "unreachable    %v\n", a)
	}
}

// exitCode is 1 when no peer answered, else 0.
func (f watchFrame) exitCode() int {
	if f.Report.Peers == 0 {
		return 1
	}
	return 0
}
