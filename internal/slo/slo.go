// Package slo turns latency histograms into service-level verdicts: each
// objective ("query p99 < 5ms") defines an error budget, and Eval says how
// fast a span of observations burns it. Burn rate is the SRE workbook
// quantity — the fraction of requests breaking the threshold divided by the
// fraction the objective allows — so burn 1.0 consumes the budget exactly on
// schedule and burn ≥ 1 is a breach.
//
// Objectives are the reader's: a node keeps no verdicts. `pgridctl cluster`
// and `pgridctl observe <id> ask=history` judge them over the history rings'
// window, on the mergeable histogram snapshots from internal/telemetry (good
// events are QHistSnapshot.CountAtOrBelow), so the same math evaluates one
// node's histogram and a whole cluster's merge.
package slo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pgrid/internal/telemetry"
)

// Objective is one latency service-level objective: at least Quantile of
// RPCs of this kind must complete within Threshold. The quantile doubles
// as the good-event target — "p99 < 5ms" means 99% of requests under 5ms,
// leaving a 1% error budget.
type Objective struct {
	Kind      string        // message kind the objective covers, e.g. "query"
	Quantile  float64       // target fraction in (0, 1), e.g. 0.99
	Threshold time.Duration // latency bound for a "good" request
}

// String renders the objective in its parseable spec form.
func (o Objective) String() string {
	q := strconv.FormatFloat(o.Quantile, 'f', -1, 64)
	return fmt.Sprintf("%s:p%s:%s", o.Kind, strings.TrimPrefix(q, "0."), o.Threshold)
}

// HistName returns the served-latency histogram the objective reads.
func (o Objective) HistName() string {
	return fmt.Sprintf("pgrid_rpc_served_latency_ns{kind=%q}", o.Kind)
}

// Budget returns the allowed bad fraction, 1 − Quantile.
func (o Objective) Budget() float64 { return 1 - o.Quantile }

// Parse reads one objective spec of the form "kind:pNN:threshold", e.g.
// "query:p99:5ms" or "exchange:p999:250ms". The digits after p are read as
// a decimal fraction: p50 → 0.5, p99 → 0.99, p999 → 0.999.
func Parse(spec string) (Objective, error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	if len(parts) != 3 {
		return Objective{}, fmt.Errorf("slo: objective %q: want kind:pNN:threshold", spec)
	}
	o := Objective{Kind: strings.TrimSpace(parts[0])}
	if o.Kind == "" {
		return Objective{}, fmt.Errorf("slo: objective %q: empty kind", spec)
	}
	q := strings.TrimSpace(parts[1])
	if len(q) < 2 || (q[0] != 'p' && q[0] != 'P') {
		return Objective{}, fmt.Errorf("slo: objective %q: quantile %q must look like p99", spec, q)
	}
	digits := q[1:]
	n, err := strconv.ParseUint(digits, 10, 32)
	if err != nil {
		return Objective{}, fmt.Errorf("slo: objective %q: quantile %q: %v", spec, q, err)
	}
	scale := 1.0
	for range digits {
		scale *= 10
	}
	o.Quantile = float64(n) / scale
	if o.Quantile <= 0 || o.Quantile >= 1 {
		return Objective{}, fmt.Errorf("slo: objective %q: quantile %v outside (0, 1)", spec, o.Quantile)
	}
	if o.Threshold, err = time.ParseDuration(strings.TrimSpace(parts[2])); err != nil {
		return Objective{}, fmt.Errorf("slo: objective %q: threshold: %v", spec, err)
	}
	if o.Threshold <= 0 {
		return Objective{}, fmt.Errorf("slo: objective %q: non-positive threshold", spec)
	}
	return o, nil
}

// ParseList reads a comma-separated list of objective specs, skipping
// empty elements, e.g. "query:p99:5ms,exchange:p95:50ms".
func ParseList(specs string) ([]Objective, error) {
	var out []Objective
	for _, s := range strings.Split(specs, ",") {
		if strings.TrimSpace(s) == "" {
			continue
		}
		o, err := Parse(s)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Status is one objective's verdict over one span of observations: the
// history window, whose histogram the reader hands Eval.
type Status struct {
	Spec     string  `json:"objective"`
	Good     int64   `json:"good"`  // in-threshold events
	Total    int64   `json:"total"` // all events
	BadFrac  float64 `json:"bad_frac"`
	Burn     float64 `json:"burn"`     // BadFrac / objective budget
	Breached bool    `json:"breached"` // Burn ≥ 1
}

// Eval judges o over h: good events are the observations at or below the
// threshold, and burn ≥ 1 means the bad fraction exceeds the objective's
// budget. An empty histogram is no data, never a breach.
func Eval(o Objective, h telemetry.QHistSnapshot) Status {
	st := Status{Spec: o.String(), Good: h.CountAtOrBelow(int64(o.Threshold)), Total: h.Count}
	if st.Total <= 0 {
		return st
	}
	st.BadFrac = float64(st.Total-st.Good) / float64(st.Total)
	if b := o.Budget(); b > 0 {
		st.Burn = st.BadFrac / b
	}
	st.Breached = st.Burn >= 1
	return st
}
