package analysis

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/health"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
)

// Histogram families read for the per-kind rows and the served p99, and the
// counters rolled into the cluster RED view. These names match what
// telemetry.Instruments registers on every node.
const (
	servedHistFamily = "pgrid_rpc_served_latency_ns"
	clientHistFamily = "pgrid_rpc_kind_latency_ns"

	statServedTotal  = "pgrid_rpc_served_total"
	statServedErrors = "pgrid_rpc_served_errors_total"
	statClientTotal  = "pgrid_rpc_client_total"
	statClientErrors = "pgrid_rpc_client_errors_total"
)

// TopK bounds the slowest/most-erroring peer lists in a cluster report.
const TopK = 5

// AvailabilityMargin is the slack the availability objective grants below
// the equation-(3) prediction: the cluster must measure within 5
// percentage points of what the Section 4 model says its structure should
// deliver.
const AvailabilityMargin = 0.05

// PeerSummary is one peer's served calls, errors and p99 over its history
// window, feeding the top-K tables.
type PeerSummary struct {
	Addr         addr.Addr
	Served       int64
	ServedErrors int64
	ServedP99    int64 // p99 over the peer's served histograms, all kinds merged
}

// ClusterReport is the community verdict over a crawled community: RED
// rollups, the windowed trend view with the latency objectives, the peers
// dragging the tail, and the structural census with the availability
// objective.
type ClusterReport struct {
	Peers       int // peers that answered the walk
	Unreachable []addr.Addr

	// RED rollups: every peer's counters at the newest point of its
	// history ring, summed.
	ServedTotal  int64
	ServedErrors int64
	ClientTotal  int64
	ClientErrors int64

	// Trends is the view over the history window: the series, the
	// per-kind rows, the findings and one verdict per latency objective.
	Trends TrendReport

	// TopSlow lists up to TopK peers by windowed served p99, worst first;
	// TopErr up to TopK peers by windowed served errors, worst first.
	TopSlow []PeerSummary
	TopErr  []PeerSummary

	// Grid is the structural census from the digests gathered during the
	// same collection, and the availability objective derived from it:
	// measured availability must stay within AvailabilityMargin of the
	// equation-(3) prediction. AvailabilityKnown is false without probe
	// data (the objective then cannot breach).
	Grid                 GridReport
	AvailabilityKnown    bool
	AvailabilityTarget   float64
	AvailabilityMeasured float64
	AvailabilityBreached bool
}

// splitHistName splits a labeled histogram name into its family and kind
// label: `pgrid_rpc_served_latency_ns{kind="query"}` → (family, "query").
func splitHistName(full string) (family, kind string) {
	i := strings.IndexByte(full, '{')
	if i < 0 {
		return full, ""
	}
	family = full[:i]
	const pfx = `kind="`
	rest := full[i:]
	j := strings.Index(rest, pfx)
	if j < 0 {
		return family, ""
	}
	rest = rest[j+len(pfx):]
	if k := strings.IndexByte(rest, '"'); k >= 0 {
		return family, rest[:k]
	}
	return family, ""
}

// AnalyzeCluster folds the history dumps of a community walk (the history
// column of node.Client.Walk) into the cluster report: the RED rollups from
// each dump's newest point, and AnalyzeTrends' windowed view, objectives and
// per-peer windows for the top-K. digests and unreachable ride along from the
// same walk; objectives are the latency SLOs to verdict.
func AnalyzeCluster(dumps map[addr.Addr]telemetry.HistoryDump, digests []health.Digest,
	unreachable []addr.Addr, objectives []slo.Objective) ClusterReport {
	r := ClusterReport{
		Peers:       len(dumps),
		Unreachable: append([]addr.Addr(nil), unreachable...),
	}
	sort.Slice(r.Unreachable, func(i, j int) bool { return r.Unreachable[i] < r.Unreachable[j] })

	for _, d := range dumps {
		if len(d.Points) == 0 {
			continue // a peer that keeps no history adds no requests
		}
		newest := d.Points[len(d.Points)-1].Snap
		served, _ := newest.Stat(statServedTotal)
		servedErrs, _ := newest.Stat(statServedErrors)
		client, _ := newest.Stat(statClientTotal)
		clientErrs, _ := newest.Stat(statClientErrors)
		r.ServedTotal += served
		r.ServedErrors += servedErrs
		r.ClientTotal += client
		r.ClientErrors += clientErrs
	}

	var peers []PeerSummary
	r.Trends, peers = AnalyzeTrends(dumps, objectives)
	r.TopSlow = topK(peers, func(p PeerSummary) int64 { return p.ServedP99 })
	r.TopErr = topK(peers, func(p PeerSummary) int64 { return p.ServedErrors })

	r.Grid = AnalyzeGrid(digests)
	if r.Grid.MeasuredAvailability >= 0 && r.Grid.Eq3Availability >= 0 {
		r.AvailabilityKnown = true
		r.AvailabilityMeasured = r.Grid.MeasuredAvailability
		r.AvailabilityTarget = r.Grid.Eq3Availability - AvailabilityMargin
		r.AvailabilityBreached = r.AvailabilityMeasured < r.AvailabilityTarget
	}
	return r
}

// topK lists up to TopK peers by key, largest first (ties in address
// order), leaving out peers whose key is zero.
func topK(peers []PeerSummary, key func(PeerSummary) int64) []PeerSummary {
	sorted := append([]PeerSummary(nil), peers...)
	sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) > key(sorted[j]) })
	var out []PeerSummary
	for _, p := range sorted {
		if key(p) <= 0 || len(out) == TopK {
			break
		}
		out = append(out, p)
	}
	return out
}

// Breached reports whether any objective — latency over the window, or
// availability — is currently in breach.
func (r ClusterReport) Breached() bool {
	if r.AvailabilityBreached {
		return true
	}
	for _, s := range r.Trends.SLO {
		if s.Breached {
			return true
		}
	}
	return false
}

// FlattenSnapshot folds one node's metrics snapshot into one stats map: the
// flat counters as they are, and each quantile histogram's quantiles under
// the series names /metrics uses.
func FlattenSnapshot(snap telemetry.MetricsSnapshot) map[string]int64 {
	m := make(map[string]int64)
	for _, s := range snap.Stats {
		m[s.Name] = s.Value
	}
	for _, h := range snap.Hists {
		if h.Count == 0 {
			continue
		}
		qs := h.Quantiles(telemetry.QuantilePoints...)
		for i, q := range []string{"0.5", "0.95", "0.99", "0.999"} {
			m[withQuantile(h.Name, q)] = qs[i]
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

// fmtNS renders nanoseconds with an adaptive unit, aligned for tables.
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

// RenderClusterReport writes the report as the text view behind
// `pgridctl cluster`.
func RenderClusterReport(w io.Writer, r ClusterReport) {
	fmt.Fprintf(w, "cluster        %d peers collected", r.Peers)
	if len(r.Unreachable) > 0 {
		fmt.Fprintf(w, ", %d unreachable (%s)", len(r.Unreachable), addrList(r.Unreachable))
	}
	fmt.Fprintln(w)
	if r.Peers == 0 {
		return
	}
	fmt.Fprintf(w, "requests       served %d (errors %d), client %d (errors %d)\n",
		r.ServedTotal, r.ServedErrors, r.ClientTotal, r.ClientErrors)

	RenderTrendReport(w, r.Trends)
	for _, p := range r.TopSlow {
		fmt.Fprintf(w, "slowest        peer %d: served p99 %s over %d rpcs in the window\n",
			int(p.Addr), fmtNS(p.ServedP99), p.Served)
	}
	for _, p := range r.TopErr {
		fmt.Fprintf(w, "errors         peer %d: %d served errors of %d rpcs in the window\n",
			int(p.Addr), p.ServedErrors, p.Served)
	}

	if r.AvailabilityKnown {
		verdict := "ok"
		if r.AvailabilityBreached {
			verdict = "BREACHED"
		}
		fmt.Fprintf(w, "slo            availability measured %.3f ≥ target %.3f (Eq.3 %.3f − %.0fpp)  %s\n",
			r.AvailabilityMeasured, r.AvailabilityTarget, r.Grid.Eq3Availability, 100*AvailabilityMargin, verdict)
	} else {
		fmt.Fprintf(w, "slo            availability unknown (no probe data yet)\n")
	}

	RenderGridReport(w, r.Grid)
}
