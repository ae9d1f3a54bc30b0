package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
)

// statPoolWait is the pooled-transport acquire-wait histogram trended in
// watch views alongside the RED series.
const statPoolWait = "pgrid_pool_acquire_wait_ns"

// TrendSeries is one sparkline-able time series federated from the
// cluster's history rings: per-interval values, oldest first, aligned on
// the newest interval (peers whose rings hold fewer points contribute to
// the recent intervals only).
type TrendSeries struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Points []float64 `json:"points"`
}

// TrendFinding is one detected anomaly in the windowed data.
type TrendFinding struct {
	// Kind is one of "latency-regression", "error-spike", "drop-burst",
	// "counter-reset".
	Kind   string    `json:"kind"`
	Peer   addr.Addr `json:"peer"` // addr.Nil for cluster-wide findings
	Detail string    `json:"detail"`
}

// TrendReport is the windowed view of a community: the trend series
// behind `pgridctl watch`, anomaly findings, and the latency objectives
// re-verdicted over real windows (the history delta) instead of
// whole-of-process cumulative counts.
type TrendReport struct {
	Peers      int            `json:"peers"`
	Span       time.Duration  `json:"span_ns"`
	IntervalNS int64          `json:"interval_ns"`
	Resets     int            `json:"resets"`
	Series     []TrendSeries  `json:"series"`
	Findings   []TrendFinding `json:"findings,omitempty"`
	// SLO holds one verdict per objective, evaluated against the served
	// histograms' windowed delta — what actually happened during the
	// dump's span, immune to pre-window history.
	SLO []slo.Status `json:"slo,omitempty"`
}

// servedDelta returns the per-interval delta of every served-family
// histogram in a dump merged together, oldest interval first. Reset
// intervals use the post-restart cumulative state (never negative).
func servedDelta(d telemetry.HistoryDump) []telemetry.QHistSnapshot {
	if len(d.Points) < 2 {
		return nil
	}
	mergedAt := func(s telemetry.MetricsSnapshot) telemetry.QHistSnapshot {
		out := telemetry.QHistSnapshot{}
		for _, h := range s.Hists {
			if family, _ := splitHistName(h.Name); family != servedHistFamily {
				continue
			}
			if m, err := telemetry.MergeQHist(out, h); err == nil {
				out = m
			}
		}
		return out
	}
	out := make([]telemetry.QHistSnapshot, 0, len(d.Points)-1)
	prev := mergedAt(d.Points[0].Snap)
	for i := 1; i < len(d.Points); i++ {
		cur := mergedAt(d.Points[i].Snap)
		delta, _, err := telemetry.SubtractQHist(cur, prev)
		if err != nil {
			delta = cur
		}
		out = append(out, delta)
		prev = cur
	}
	return out
}

// alignSum folds per-peer interval series into one cluster series,
// aligned on the newest interval: series[len-1] lines up across peers
// (samplers share a cadence), shorter rings simply miss the older
// columns.
func alignSum(per [][]float64) []float64 {
	n := 0
	for _, s := range per {
		if len(s) > n {
			n = len(s)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for _, s := range per {
		off := n - len(s)
		for i, v := range s {
			out[off+i] += v
		}
	}
	return out
}

// AnalyzeTrends folds per-peer history dumps (from the history column of
// node.Client.Walk, or a single node's /debug/history) into
// the windowed trend report: cluster rate/error/drop/latency series,
// anomaly findings, and the objectives evaluated over the dump's real
// window. The companion of AnalyzeCluster for the time axis.
func AnalyzeTrends(dumps map[addr.Addr]telemetry.HistoryDump, objectives []slo.Objective) TrendReport {
	r := TrendReport{Peers: len(dumps)}

	addrs := make([]addr.Addr, 0, len(dumps))
	for a := range dumps {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var rates, errRates, dropRates, p99s, poolP99s [][]float64
	perPeerDeltas := make(map[addr.Addr][]telemetry.QHistSnapshot, len(dumps))
	for _, a := range addrs {
		d := dumps[a]
		if d.IntervalNS > r.IntervalNS {
			r.IntervalNS = d.IntervalNS
		}
		if s := d.Span(); s > r.Span {
			r.Span = s
		}
		if n := d.Resets(); n > 0 {
			r.Resets += n
			r.Findings = append(r.Findings, TrendFinding{Kind: "counter-reset", Peer: a,
				Detail: fmt.Sprintf("%d restart(s) inside the window: rates count post-restart values only", n)})
		}
		rates = append(rates, d.RateSeries(statServedTotal))
		errRates = append(errRates, d.RateSeries(statServedErrors))
		dropRates = append(dropRates, d.RateSeries(statDropped))
		poolP99s = append(poolP99s, d.QuantileSeries(statPoolWait, 0.99))

		deltas := servedDelta(d)
		perPeerDeltas[a] = deltas
		peerP99 := make([]float64, len(deltas))
		for i, h := range deltas {
			if h.Count > 0 {
				peerP99[i] = float64(h.Quantile(0.99))
			}
		}
		p99s = append(p99s, peerP99)
	}

	// The cluster p99 series merges the per-interval delta histograms
	// across peers before taking the quantile — quantiles of the union
	// stream, never averages of quantiles.
	nIntervals := 0
	for _, d := range perPeerDeltas {
		if len(d) > nIntervals {
			nIntervals = len(d)
		}
	}
	clusterP99 := make([]float64, nIntervals)
	for i := 0; i < nIntervals; i++ {
		merged := telemetry.QHistSnapshot{}
		for _, deltas := range perPeerDeltas {
			j := i - (nIntervals - len(deltas))
			if j < 0 {
				continue
			}
			if m, err := telemetry.MergeQHist(merged, deltas[j]); err == nil {
				merged = m
			}
		}
		if merged.Count > 0 {
			clusterP99[i] = float64(merged.Quantile(0.99))
		}
	}

	rate := alignSum(rates)
	errRate := alignSum(errRates)
	drops := alignSum(dropRates)
	r.Series = []TrendSeries{
		{Name: "rpc rate", Unit: "/s", Points: rate},
		{Name: "error rate", Unit: "/s", Points: errRate},
		{Name: "served p99", Unit: "ns", Points: clusterP99},
		{Name: "pool wait p99", Unit: "ns", Points: alignSum(poolP99s)},
		{Name: "drops", Unit: "/s", Points: drops},
	}

	r.Findings = append(r.Findings, trendFindings(clusterP99, errRate, drops)...)

	// Objectives over the real window: newest cumulative state minus the
	// dump baseline, merged across peers. A peer that restarted inside the
	// window contributes its post-restart state — counted, not negative.
	for _, o := range objectives {
		merged := telemetry.QHistSnapshot{}
		for _, a := range addrs {
			wh, _, ok := dumps[a].WindowHist(o.HistName(), 0)
			if !ok {
				continue
			}
			if m, err := telemetry.MergeQHist(merged, wh); err == nil {
				merged = m
			}
		}
		r.SLO = append(r.SLO, slo.Eval(o, merged))
	}
	return r
}

// trendFindings scans the cluster series for anomalies. The halves
// comparison needs at least 4 intervals; with fewer the window is too
// short to call anything a trend.
func trendFindings(p99, errRate, drops []float64) []TrendFinding {
	var out []TrendFinding
	if len(p99) >= 4 {
		firstMean, firstN := meanNonZero(p99[:len(p99)/2])
		secondMean, secondN := meanNonZero(p99[len(p99)/2:])
		if firstN > 0 && secondN > 0 && secondMean >= 2*firstMean {
			out = append(out, TrendFinding{Kind: "latency-regression", Peer: addr.Nil,
				Detail: fmt.Sprintf("served p99 rose from %s to %s between window halves (%.1fx)",
					fmtNS(int64(firstMean)), fmtNS(int64(secondMean)), secondMean/firstMean)})
		}
	}
	if len(errRate) >= 2 {
		base, _ := meanNonZero(errRate[:len(errRate)/2])
		peak := 0.0
		for _, v := range errRate[len(errRate)/2:] {
			if v > peak {
				peak = v
			}
		}
		if peak > 0 && (base == 0 || peak >= 3*base) {
			out = append(out, TrendFinding{Kind: "error-spike", Peer: addr.Nil,
				Detail: fmt.Sprintf("error rate peaked at %.2f/s in the recent half (earlier mean %.2f/s)", peak, base)})
		}
	}
	peak, at := 0.0, -1
	for i, v := range drops {
		if v > peak {
			peak, at = v, i
		}
	}
	if peak > 0 {
		out = append(out, TrendFinding{Kind: "drop-burst", Peer: addr.Nil,
			Detail: fmt.Sprintf("injected drops peaked at %.2f/s (interval %d of %d)", peak, at+1, len(drops))})
	}
	return out
}

func meanNonZero(vs []float64) (mean float64, n int) {
	sum := 0.0
	for _, v := range vs {
		if v > 0 {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// sparkChars are the eight levels of a terminal sparkline.
var sparkChars = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a fixed-height terminal graph, scaled to
// the series' own maximum (an all-zero series renders as a flat floor).
func Sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	max := 0.0
	for _, v := range vs {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if max > 0 && v > 0 {
			i = int(v / max * float64(len(sparkChars)-1))
			if i >= len(sparkChars) {
				i = len(sparkChars) - 1
			}
		}
		b.WriteRune(sparkChars[i])
	}
	return b.String()
}

// sparkWidth caps rendered sparklines; longer series show their newest
// columns (the text view is a live tail, not an archive).
const sparkWidth = 60

// RenderTrendReport writes the report as the text view behind
// `pgridctl watch` and /debug/history?format=text.
func RenderTrendReport(w io.Writer, r TrendReport) {
	fmt.Fprintf(w, "trends         %d peers, %s of history at %s resolution",
		r.Peers, r.Span.Round(time.Millisecond), time.Duration(r.IntervalNS))
	if r.Resets > 0 {
		fmt.Fprintf(w, ", %d restart(s)", r.Resets)
	}
	fmt.Fprintf(w, "\n")
	for _, s := range r.Series {
		pts := s.Points
		if len(pts) > sparkWidth {
			pts = pts[len(pts)-sparkWidth:]
		}
		last := 0.0
		if len(s.Points) > 0 {
			last = s.Points[len(s.Points)-1]
		}
		cur := fmt.Sprintf("%.2f%s", last, s.Unit)
		if s.Unit == "ns" {
			cur = fmtNS(int64(last))
		}
		fmt.Fprintf(w, "  %-14s %s  %s\n", s.Name, Sparkline(pts), cur)
	}
	for _, f := range r.Findings {
		peer := "cluster"
		if f.Peer != addr.Nil {
			peer = fmt.Sprintf("peer %d", int(f.Peer))
		}
		fmt.Fprintf(w, "finding        %-18s %s: %s\n", f.Kind, peer, f.Detail)
	}
	for _, s := range r.SLO {
		verdict := "ok"
		if s.Breached {
			verdict = "BREACHED"
		}
		wb := s.Windows[0]
		fmt.Fprintf(w, "slo            %-22s windowed burn %.2f (%d of %d slow)  %s\n",
			s.Spec, wb.Burn, wb.Total-wb.Good, wb.Total, verdict)
	}
}
