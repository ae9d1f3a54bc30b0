package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry holds named instruments and renders them. Registration is
// idempotent by name: asking twice for the same name returns the same
// instrument, so independent subsystems can share counters. Names follow
// Prometheus conventions and may carry a label suffix, e.g.
// `pgrid_exchange_case_total{case="1"}` — instruments sharing the base
// name before the '{' are rendered as one metric family.
type Registry struct {
	mu    sync.Mutex
	order []string
	insts map[string]any // *Counter, *Gauge, *GaugeFunc, or *QHist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{insts: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if name is already registered as a different instrument
// kind. Nil-safe: a nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		c, ok := in.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, in))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.insts[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// It panics if name is already registered as a different instrument kind.
// Nil-safe like Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		g, ok := in.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, in))
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.insts[name] = g
	r.order = append(r.order, name)
	return g
}

// GaugeFunc is a gauge whose value is computed on demand by a callback,
// for readings that are cheap to take but pointless to track eagerly
// (runtime stats, pool sizes owned by another struct). The callback runs
// only when the registry is rendered or snapshotted, so an idle process
// pays nothing. Nil-safe like every instrument.
type GaugeFunc struct {
	name string
	help string
	fn   func() int64
}

// Value invokes the callback (0 on a nil receiver or nil callback).
func (g *GaugeFunc) Value() int64 {
	if g == nil || g.fn == nil {
		return 0
	}
	return g.fn()
}

// Name returns the gauge's registered name.
func (g *GaugeFunc) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// GaugeFunc registers a callback-backed gauge under name, creating it on
// first use. Re-registering an existing GaugeFunc name returns the
// original (the new callback is ignored), keeping registration idempotent
// like every other instrument. Panics if name is already registered as a
// different instrument kind. Nil-safe like Counter.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		g, ok := in.(*GaugeFunc)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, in))
		}
		return g
	}
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.insts[name] = g
	r.order = append(r.order, name)
	return g
}

// Quantile returns the log-bucketed quantile histogram registered under
// name, creating it on first use. It panics if name is already registered
// as a different instrument kind. Nil-safe like Counter.
func (r *Registry) Quantile(name, help string) *QHist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		q, ok := in.(*QHist)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, in))
		}
		return q
	}
	q := &QHist{name: name, help: help}
	r.insts[name] = q
	r.order = append(r.order, name)
	return q
}

// Stat is one flattened metric sample: quantile histograms expand into
// `name{quantile="…"}`, `name_sum` and `name_count` summary entries,
// exactly like their Prometheus rendering.
type Stat struct {
	Name  string
	Value int64
}

// Snapshot returns every metric as flat (name, value) pairs in
// registration order. Nil-safe: a nil registry returns nil.
func (r *Registry) Snapshot() []Stat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Stat
	for _, name := range r.order {
		switch in := r.insts[name].(type) {
		case *Counter:
			out = append(out, Stat{Name: name, Value: in.Value()})
		case *Gauge:
			out = append(out, Stat{Name: name, Value: in.Value()})
		case *GaugeFunc:
			out = append(out, Stat{Name: name, Value: in.Value()})
		case *QHist:
			qs := in.Quantiles(QuantilePoints...)
			for i, v := range qs {
				out = append(out, Stat{Name: withLabel(name, "quantile", quantileLabels[i]), Value: v})
			}
			out = append(out,
				Stat{Name: suffixed(name, "_sum"), Value: in.Sum()},
				Stat{Name: suffixed(name, "_count"), Value: in.Count()})
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in registration order of
// their first member; HELP/TYPE headers appear once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool)
	for _, name := range r.order {
		family := familyOf(name)
		switch in := r.insts[name].(type) {
		case *Counter:
			if !seen[family] {
				seen[family] = true
				if err := writeHeader(w, family, in.help, "counter"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, in.Value()); err != nil {
				return err
			}
		case *Gauge:
			if !seen[family] {
				seen[family] = true
				if err := writeHeader(w, family, in.help, "gauge"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, in.Value()); err != nil {
				return err
			}
		case *GaugeFunc:
			if !seen[family] {
				seen[family] = true
				if err := writeHeader(w, family, in.help, "gauge"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, in.Value()); err != nil {
				return err
			}
		case *QHist:
			if !seen[family] {
				seen[family] = true
				if err := writeHeader(w, family, in.help, "summary"); err != nil {
					return err
				}
			}
			qs := in.Quantiles(QuantilePoints...)
			for i, v := range qs {
				if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(name, "quantile", quantileLabels[i]), v); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n", suffixed(name, "_sum"), in.Sum(), suffixed(name, "_count"), in.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHeader(w io.Writer, family, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, typ)
	return err
}

// familyOf strips the label suffix from an instrument name.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// Label builds a labeled instrument name, e.g.
// Label("pgrid_rpc_total", "kind", "query") → `pgrid_rpc_total{kind="query"}`.
func Label(name, key, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, key, value)
}

// suffixed inserts a family suffix before any label braces:
// suffixed(`m{kind="query"}`, "_sum") → `m_sum{kind="query"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// withLabel appends one more label to a possibly-already-labeled name:
// withLabel(`m{kind="query"}`, "quantile", "0.5") →
// `m{kind="query",quantile="0.5"}`.
func withLabel(name, key, value string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return fmt.Sprintf("%s,%s=%q}", name[:len(name)-1], key, value)
	}
	return Label(name, key, value)
}

// sortStats orders a snapshot by name (used by tests; the live snapshot
// keeps registration order, which groups families together).
func sortStats(stats []Stat) {
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
}
