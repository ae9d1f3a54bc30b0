package analysis

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
)

// statPoolWait is the pooled-transport acquire-wait histogram trended
// alongside the RED series.
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
	// Kind is one of "latency-regression", "error-spike", "counter-reset".
	Kind   string    `json:"kind"`
	Peer   addr.Addr `json:"peer"` // addr.Nil for cluster-wide findings
	Detail string    `json:"detail"`
}

// TrendReport is the windowed view of a community or of one peer: the trend
// series, the per-kind rows, anomaly findings, and the latency objectives
// judged over the history window.
type TrendReport struct {
	Peers      int           `json:"peers"`
	Span       time.Duration `json:"span_ns"`
	IntervalNS int64         `json:"interval_ns"`
	Resets     int           `json:"resets"`
	Series     []TrendSeries `json:"series"`
	// Kinds holds one row per scope and kind with calls in the window: the
	// window's calls, their rate over the newest interval and their
	// quantiles, merged across peers.
	Kinds    []KindLatency  `json:"kinds,omitempty"`
	Findings []TrendFinding `json:"findings,omitempty"`
	// SLO holds one verdict per objective, evaluated against the served
	// histograms' windowed delta — what actually happened during the
	// dump's span, immune to pre-window history.
	SLO []slo.Status `json:"slo,omitempty"`
}

// intervalDeltas returns the per-interval delta of a dump's histograms in
// family, every kind merged, oldest interval first. An interval that crosses
// a restart counts the post-restart cumulative state, never a negative one.
func intervalDeltas(d telemetry.HistoryDump, family string) []telemetry.QHistSnapshot {
	if len(d.Points) < 2 {
		return nil
	}
	mergedAt := func(s telemetry.MetricsSnapshot) telemetry.QHistSnapshot {
		out := telemetry.QHistSnapshot{}
		for _, h := range s.Hists {
			if f, _ := splitHistName(h.Name); f != family {
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
		if err != nil || !d.Points[i-1].Snap.SameEpoch(d.Points[i].Snap) {
			delta = cur
		}
		out = append(out, delta)
		prev = cur
	}
	return out
}

// unionP99 folds per-peer interval deltas into one p99 series aligned on the
// newest interval: each column merges the peers' deltas before it takes the
// quantile — the quantile of the union stream, never a sum or an average of
// quantiles. Shorter rings miss the older columns.
func unionP99(per [][]telemetry.QHistSnapshot) []float64 {
	n := 0
	for _, s := range per {
		n = max(n, len(s))
	}
	out := make([]float64, n)
	for i := range out {
		merged := telemetry.QHistSnapshot{}
		for _, s := range per {
			if j := i - (n - len(s)); j >= 0 {
				if m, err := telemetry.MergeQHist(merged, s[j]); err == nil {
					merged = m
				}
			}
		}
		if merged.Count > 0 {
			out[i] = float64(merged.Quantile(0.99))
		}
	}
	return out
}

// windowCount is how much the named counter grew over the dump, interval by
// interval by the ring's rate rule: an interval that crosses a restart counts
// the post-restart value.
func windowCount(d telemetry.HistoryDump, name string) int64 {
	var n int64
	for i := 1; i < len(d.Points); i++ {
		a, _ := d.Points[i-1].Snap.Stat(name)
		b, _ := d.Points[i].Snap.Stat(name)
		if b < a || !d.Points[i-1].Snap.SameEpoch(d.Points[i].Snap) {
			a = 0
		}
		n += b - a
	}
	return n
}

// KindLatency is one per-kind row, merged across peers: the window's calls,
// their rate over the newest interval, and their quantiles — every peer's
// window histogram summed bucket-wise, so the quantiles are exactly those of
// the union stream (not an average of per-peer quantiles, which would be
// meaningless). Count is the merged histogram's: the calls the quantiles and
// an objective on the kind (its SLO line's total) are taken over.
type KindLatency struct {
	Scope string // "served" or "client"
	Kind  string
	Hist  telemetry.QHistSnapshot
	Count int64
	Rate  float64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
}

// kindKey names one latency row.
type kindKey struct{ scope, kind string }

// latencyRows turns the merged per-kind window histograms and rates into
// rows sorted by scope then kind. A kind with no calls in the window is left
// out.
func latencyRows(hists map[kindKey]telemetry.QHistSnapshot, rates map[kindKey]float64) []KindLatency {
	var rows []KindLatency
	for k, h := range hists {
		if h.Count == 0 {
			continue
		}
		qs := h.Quantiles(telemetry.QuantilePoints...)
		rows = append(rows, KindLatency{Scope: k.scope, Kind: k.kind, Hist: h, Count: h.Count, Rate: rates[k],
			P50: qs[0], P95: qs[1], P99: qs[2], P999: qs[3]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Scope != rows[j].Scope {
			return rows[i].Scope < rows[j].Scope
		}
		return rows[i].Kind < rows[j].Kind
	})
	return rows
}

// renderLatency writes the per-kind rows as one table — scope, kind, the
// window's calls, calls per second over the newest interval, then p50 to
// p999. No rows, no table.
func renderLatency(w io.Writer, rows []KindLatency) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "latency        %-7s %-10s %8s %8s %9s %9s %9s %9s\n", "scope", "kind", "count", "rate/s", "p50", "p95", "p99", "p999")
	for _, l := range rows {
		fmt.Fprintf(w, "               %-7s %-10s %8d %8.1f %9s %9s %9s %9s\n", l.Scope, l.Kind, l.Count, l.Rate,
			fmtNS(l.P50), fmtNS(l.P95), fmtNS(l.P99), fmtNS(l.P999))
	}
}

// kindFamilies are, per scope, the per-kind call counter and latency
// histogram families the trend report's per-kind rows read.
var kindFamilies = [...]struct{ scope, calls, latency string }{
	{"client", "pgrid_rpc_client_kind_total", clientHistFamily},
	{"served", "pgrid_rpc_served_kind_total", servedHistFamily},
}

// addKinds folds one peer's dump into the per-kind rows: for each kind the
// newest point counts calls for, the rate over the newest interval and the
// window's latency histogram, each by the ring's restart rule (RateSeries,
// WindowHist).
func addKinds(d telemetry.HistoryDump, hists map[kindKey]telemetry.QHistSnapshot, rates map[kindKey]float64) {
	if len(d.Points) == 0 {
		return
	}
	for _, st := range d.Points[len(d.Points)-1].Snap.Stats {
		family, kind := splitHistName(st.Name)
		for _, f := range kindFamilies {
			if family != f.calls || kind == "" {
				continue
			}
			k := kindKey{f.scope, kind}
			if rs := d.RateSeries(st.Name); len(rs) > 0 {
				rates[k] += rs[len(rs)-1]
			}
			wh, _, _ := d.WindowHist(f.latency+`{kind=`+strconv.Quote(kind)+`}`, 0)
			if m, err := telemetry.MergeQHist(hists[k], wh); err == nil {
				hists[k] = m
			}
		}
	}
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

// AnalyzeTrends folds per-peer history dumps (the history column of
// node.Client.Walk, or of one node's observe answer) into the windowed
// trend report — cluster rate/error/latency series, the per-kind rows
// (calls and quantiles over the window, rate over the newest interval), anomaly
// findings and the objectives evaluated over the dump's real window — and
// lists each peer's served calls, errors and p99 over its window, by
// address, for the cluster report's top-K.
func AnalyzeTrends(dumps map[addr.Addr]telemetry.HistoryDump, objectives []slo.Objective) (TrendReport, []PeerSummary) {
	r := TrendReport{Peers: len(dumps)}

	addrs := make([]addr.Addr, 0, len(dumps))
	for a := range dumps {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var rates, errRates [][]float64
	var served, poolWaits [][]telemetry.QHistSnapshot
	peers := make([]PeerSummary, 0, len(dumps))
	kindHists, kindRates := map[kindKey]telemetry.QHistSnapshot{}, map[kindKey]float64{}
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
		poolWaits = append(poolWaits, intervalDeltas(d, statPoolWait))
		addKinds(d, kindHists, kindRates)

		deltas := intervalDeltas(d, servedHistFamily)
		served = append(served, deltas)
		window := telemetry.QHistSnapshot{}
		for _, h := range deltas {
			if m, err := telemetry.MergeQHist(window, h); err == nil {
				window = m
			}
		}
		p := PeerSummary{Addr: a, Served: window.Count, ServedErrors: windowCount(d, statServedErrors)}
		if window.Count > 0 {
			p.ServedP99 = window.Quantile(0.99)
		}
		peers = append(peers, p)
	}

	servedP99 := unionP99(served)
	errRate := alignSum(errRates)
	r.Series = []TrendSeries{
		{Name: "rpc rate", Unit: "/s", Points: alignSum(rates)},
		{Name: "error rate", Unit: "/s", Points: errRate},
		{Name: "served p99", Unit: "ns", Points: servedP99},
		{Name: "pool wait p99", Unit: "ns", Points: unionP99(poolWaits)},
	}

	r.Kinds = latencyRows(kindHists, kindRates)
	r.Findings = append(r.Findings, trendFindings(servedP99, errRate)...)

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
	return r, peers
}

// trendFindings scans the cluster series for anomalies. The halves
// comparison needs at least 4 intervals; with fewer the window is too
// short to call anything a trend. A latency regression is a recent half
// that stays slow: every interval with calls at twice the earlier mean or
// more, so one slow interval in a quiet window is not a trend.
func trendFindings(p99, errRate []float64) []TrendFinding {
	var out []TrendFinding
	if len(p99) >= 4 {
		firstMean, firstN := meanNonZero(p99[:len(p99)/2])
		recentMin := 0.0 // the fastest recent interval with calls
		for _, v := range p99[len(p99)/2:] {
			if v > 0 && (recentMin == 0 || v < recentMin) {
				recentMin = v
			}
		}
		if firstN > 0 && recentMin > 0 && recentMin >= 2*firstMean {
			out = append(out, TrendFinding{Kind: "latency-regression", Peer: addr.Nil,
				Detail: fmt.Sprintf("served p99 rose from %s to at least %s between window halves (%.1fx)",
					fmtNS(int64(firstMean)), fmtNS(int64(recentMin)), recentMin/firstMean)})
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

// RenderTrendReport writes the report as the windowed section of
// `pgridctl cluster` and the text view of an observed history
// (`pgridctl observe <id> ask=history`, /debug/observe?ask=history&format=text).
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
	renderLatency(w, r.Kinds)
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
		fmt.Fprintf(w, "slo            %-22s windowed burn %.2f (%d of %d slow)  %s\n",
			s.Spec, s.Burn, s.Total-s.Good, s.Total, verdict)
	}
}
