package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/node"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// watchFrame is one refresh of `pgridctl watch -json`: the federated
// trend report plus collection metadata, emitted as one JSON object per
// frame so scripts can stream it line-by-line.
type watchFrame struct {
	Scope       string               `json:"scope"`
	At          time.Time            `json:"at"`
	Messages    int                  `json:"messages"`
	Unreachable []addr.Addr          `json:"unreachable,omitempty"`
	Report      analysis.TrendReport `json:"report"`
}

// runWatch fetches history rings — one node's, or every reachable
// peer's via the community walk — and renders the windowed trend view:
// sparklines for RPC rate, error rate, served p99 and pool wait, plus
// anomaly findings and windowed SLO verdicts. Unlike top, which
// differences two consecutive fetches client-side, watch reads the
// server-side rings, so one frame already holds the whole window (count 1
// is a complete report, not a baseline).
func runWatch(client *node.Client, id addr.Addr, clusterMode bool, objectives []slo.Objective, interval time.Duration, count int, jsonOut bool) {
	scope := fmt.Sprintf("node %v", id)
	if clusterMode {
		scope = fmt.Sprintf("cluster from node %v", id)
	}
	enc := json.NewEncoder(os.Stdout)
	for i := 0; count <= 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		var (
			dumps       map[addr.Addr]telemetry.HistoryDump
			unreachable []addr.Addr
			messages    int
		)
		if clusterMode {
			res := client.Walk(id, wire.ObserveReq{Asks: wire.AskHistory})
			dumps, unreachable, messages = res.Dumps, res.Unreachable, res.Messages
		} else {
			o, err := client.Observe(id, wire.ObserveReq{Asks: wire.AskHistory})
			if err != nil {
				log.Fatal(err)
			}
			dumps = map[addr.Addr]telemetry.HistoryDump{id: *o.History}
			messages = 1
		}
		rep := analysis.AnalyzeTrends(dumps, objectives)
		if jsonOut {
			if err := enc.Encode(watchFrame{Scope: scope, At: time.Now(),
				Messages: messages, Unreachable: unreachable, Report: rep}); err != nil {
				log.Fatal(err)
			}
		} else {
			if count != 1 {
				fmt.Print("\x1b[H\x1b[2J")
			}
			fmt.Printf("watch %s · %s (%d messages)\n", scope, time.Now().Format("15:04:05"), messages)
			analysis.RenderTrendReport(os.Stdout, rep)
			for _, a := range unreachable {
				fmt.Printf("unreachable    %v\n", a)
			}
		}
		if count == 1 && rep.Peers == 0 {
			os.Exit(1)
		}
	}
}
