package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/health"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
)

// Histogram families federated into per-kind cluster quantiles, and the
// counters rolled into the cluster RED view. These names match what
// telemetry.Instruments registers on every node.
const (
	servedHistFamily = "pgrid_rpc_served_latency_ns"
	clientHistFamily = "pgrid_rpc_kind_latency_ns"

	statServedTotal  = "pgrid_rpc_served_total"
	statServedErrors = "pgrid_rpc_served_errors_total"
	statClientTotal  = "pgrid_rpc_client_total"
	statClientErrors = "pgrid_rpc_client_errors_total"
	statDropped      = "pgrid_rpc_dropped_total"
)

// TopK bounds the slowest/most-erroring peer lists in a cluster report.
const TopK = 5

// AvailabilityMargin is the slack the availability objective grants below
// the equation-(3) prediction: the cluster must measure within 5
// percentage points of what the Section 4 model says its structure should
// deliver.
const AvailabilityMargin = 0.05

// KindLatency is one merged latency row: every peer's histogram for this
// scope and kind summed bucket-wise, so the quantiles are exactly those of
// the union stream (not an average of per-peer quantiles, which would be
// meaningless).
type KindLatency struct {
	Scope string // "served" or "client"
	Kind  string
	Hist  telemetry.QHistSnapshot
	Count int64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
}

// PeerSummary is the per-peer RED rollup feeding the top-K tables.
type PeerSummary struct {
	Addr         addr.Addr
	Served       int64
	ServedErrors int64
	ServedP99    int64 // p99 over the peer's served histograms, all kinds merged
}

// ClusterReport is the federated observability view of a crawled
// community: merged latency quantiles, request/error/drop rollups, the
// peers dragging the tail, and the SLO verdicts.
type ClusterReport struct {
	Peers       int // peers that contributed a metrics snapshot
	Unreachable []addr.Addr
	// Schema is the snapshot schema this report understands; SchemaSkew
	// counts peers whose snapshots reported a different version (their
	// stats still merge — the sparse encoding is forward-compatible at
	// the bucket level, and skew is surfaced rather than hidden).
	Schema     int
	SchemaSkew int

	// RED rollups summed across every collected peer.
	ServedTotal  int64
	ServedErrors int64
	ClientTotal  int64
	ClientErrors int64
	Dropped      int64

	// Latency holds the merged per-kind quantile rows, sorted by scope
	// then kind.
	Latency []KindLatency

	// TopSlow lists up to TopK peers by served p99, worst first; TopErr
	// up to TopK peers by served error count, worst first.
	TopSlow []PeerSummary
	TopErr  []PeerSummary

	// SLO holds one verdict per latency objective, evaluated against the
	// merged served histograms.
	SLO []slo.Status

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

// AnalyzeCluster folds per-peer metrics snapshots (the metrics column of
// node.Client.Walk) into the cluster report. digests and unreachable
// ride along from the same crawl; objectives are the latency SLOs to
// verdict (nil means no latency SLO section).
func AnalyzeCluster(snaps map[addr.Addr]telemetry.MetricsSnapshot, digests []health.Digest,
	unreachable []addr.Addr, objectives []slo.Objective) ClusterReport {
	r := ClusterReport{
		Peers:       len(snaps),
		Unreachable: append([]addr.Addr(nil), unreachable...),
		Schema:      telemetry.MetricsSchemaVersion,
	}
	sort.Slice(r.Unreachable, func(i, j int) bool { return r.Unreachable[i] < r.Unreachable[j] })

	type key struct{ scope, kind string }
	merged := make(map[key]telemetry.QHistSnapshot)
	peers := make([]PeerSummary, 0, len(snaps))

	addrs := make([]addr.Addr, 0, len(snaps))
	for a := range snaps {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	for _, a := range addrs {
		snap := snaps[a]
		if snap.Schema != telemetry.MetricsSchemaVersion {
			r.SchemaSkew++
		}
		ps := PeerSummary{Addr: a}
		if v, ok := snap.Stat(statServedTotal); ok {
			ps.Served = v
			r.ServedTotal += v
		}
		if v, ok := snap.Stat(statServedErrors); ok {
			ps.ServedErrors = v
			r.ServedErrors += v
		}
		if v, ok := snap.Stat(statClientTotal); ok {
			r.ClientTotal += v
		}
		if v, ok := snap.Stat(statClientErrors); ok {
			r.ClientErrors += v
		}
		if v, ok := snap.Stat(statDropped); ok {
			r.Dropped += v
		}

		peerServed := telemetry.QHistSnapshot{}
		for _, h := range snap.Hists {
			family, kind := splitHistName(h.Name)
			var scope string
			switch family {
			case servedHistFamily:
				scope = "served"
			case clientHistFamily:
				scope = "client"
			default:
				continue // pool waits etc. stay node-local
			}
			k := key{scope, kind}
			m, err := telemetry.MergeQHist(merged[k], h)
			if err != nil {
				continue // geometry skew from a foreign build: skip, don't poison
			}
			merged[k] = m
			if scope == "served" {
				if ph, err := telemetry.MergeQHist(peerServed, h); err == nil {
					peerServed = ph
				}
			}
		}
		if peerServed.Count > 0 {
			ps.ServedP99 = peerServed.Quantile(0.99)
		}
		peers = append(peers, ps)
	}

	for k, h := range merged {
		if h.Count == 0 {
			continue
		}
		qs := h.Quantiles(telemetry.QuantilePoints...)
		r.Latency = append(r.Latency, KindLatency{Scope: k.scope, Kind: k.kind, Hist: h,
			Count: h.Count, P50: qs[0], P95: qs[1], P99: qs[2], P999: qs[3]})
	}
	sort.Slice(r.Latency, func(i, j int) bool {
		if r.Latency[i].Scope != r.Latency[j].Scope {
			return r.Latency[i].Scope < r.Latency[j].Scope
		}
		return r.Latency[i].Kind < r.Latency[j].Kind
	})

	slow := append([]PeerSummary(nil), peers...)
	sort.SliceStable(slow, func(i, j int) bool { return slow[i].ServedP99 > slow[j].ServedP99 })
	for _, p := range slow {
		if p.ServedP99 <= 0 || len(r.TopSlow) == TopK {
			break
		}
		r.TopSlow = append(r.TopSlow, p)
	}
	erring := append([]PeerSummary(nil), peers...)
	sort.SliceStable(erring, func(i, j int) bool { return erring[i].ServedErrors > erring[j].ServedErrors })
	for _, p := range erring {
		if p.ServedErrors <= 0 || len(r.TopErr) == TopK {
			break
		}
		r.TopErr = append(r.TopErr, p)
	}

	for _, o := range objectives {
		h := merged[key{"served", o.Kind}]
		r.SLO = append(r.SLO, slo.Eval(o, h))
	}

	r.Grid = AnalyzeGrid(digests)
	if r.Grid.MeasuredAvailability >= 0 && r.Grid.Eq3Availability >= 0 {
		r.AvailabilityKnown = true
		r.AvailabilityMeasured = r.Grid.MeasuredAvailability
		r.AvailabilityTarget = r.Grid.Eq3Availability - AvailabilityMargin
		r.AvailabilityBreached = r.AvailabilityMeasured < r.AvailabilityTarget
	}
	return r
}

// Breached reports whether any objective — latency or availability — is
// currently in breach.
func (r ClusterReport) Breached() bool {
	if r.AvailabilityBreached {
		return true
	}
	for _, s := range r.SLO {
		if s.Breached {
			return true
		}
	}
	return false
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
	fmt.Fprintf(w, " [schema v%d", r.Schema)
	if r.SchemaSkew > 0 {
		fmt.Fprintf(w, ", %d peers on another version", r.SchemaSkew)
	}
	fmt.Fprintf(w, "]\n")
	if r.Peers == 0 {
		return
	}
	fmt.Fprintf(w, "requests       served %d (errors %d), client %d (errors %d), drops %d\n",
		r.ServedTotal, r.ServedErrors, r.ClientTotal, r.ClientErrors, r.Dropped)

	if len(r.Latency) > 0 {
		fmt.Fprintf(w, "latency        %-7s %-10s %8s %9s %9s %9s %9s\n",
			"scope", "kind", "count", "p50", "p95", "p99", "p999")
		for _, l := range r.Latency {
			fmt.Fprintf(w, "               %-7s %-10s %8d %9s %9s %9s %9s\n",
				l.Scope, l.Kind, l.Count, fmtNS(l.P50), fmtNS(l.P95), fmtNS(l.P99), fmtNS(l.P999))
		}
	}
	for _, p := range r.TopSlow {
		fmt.Fprintf(w, "slowest        peer %d: served p99 %s over %d rpcs\n",
			int(p.Addr), fmtNS(p.ServedP99), p.Served)
	}
	for _, p := range r.TopErr {
		fmt.Fprintf(w, "errors         peer %d: %d served errors of %d rpcs\n",
			int(p.Addr), p.ServedErrors, p.Served)
	}

	for _, s := range r.SLO {
		verdict := "ok"
		if s.Breached {
			verdict = "BREACHED"
		}
		wb := s.Windows[0]
		fmt.Fprintf(w, "slo            %-22s burn %.2f (bad %.2f%%, budget %.2f%%, %d of %d slow)  %s\n",
			s.Spec, wb.Burn, 100*wb.BadFrac, 100*s.Objective.Budget(), wb.Total-wb.Good, wb.Total, verdict)
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
