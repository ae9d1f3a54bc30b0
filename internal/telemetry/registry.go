package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Registry holds named instruments and renders them. Registration is
// idempotent by name: asking twice for the same name returns the same
// instrument, so independent subsystems can share counters (a Func sums
// the callbacks registered under its name). Names follow
// Prometheus conventions and may carry a label suffix, e.g.
// `pgrid_exchange_case_total{case="1"}` — instruments sharing the base
// name before the '{' are rendered as one metric family.
type Registry struct {
	mu    sync.Mutex
	order []string
	insts map[string]any // *Counter, *Func, or *QHist
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
	return register(r, name, func() *Counter { return &Counter{help: help} })
}

// Quantile returns the log-bucketed quantile histogram registered under
// name, creating it on first use. It panics if name is already registered
// as a different instrument kind. Nil-safe like Counter.
func (r *Registry) Quantile(name, help string) *QHist {
	if r == nil {
		return nil
	}
	return register(r, name, func() *QHist { return &QHist{name: name, help: help} })
}

// Func is an instrument whose value its owner keeps — a pool's connection
// count, a repairer's rounds, the runtime's heap — read by calling back
// when the registry is rendered or snapshotted, so the owner's count is the
// only one and an idle process pays nothing. Callbacks registered under
// one name are summed: owners sharing one registry (several nodes on one
// Instruments) read as their total — or, for a ratio (LeastGaugeFunc), as
// the least any owner reports. typ is the exposition type, "counter" for a
// count that only grows, "gauge" otherwise.
type Func struct {
	help, typ string
	least     bool
	fns       []func() int64 // appended under Registry.mu
}

// GaugeFunc adds fn to the gauge read on demand under name, creating it on
// first use. It panics if name is already registered as a different
// instrument kind. Nil-safe: a nil registry ignores the call.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.addFunc(name, help, "gauge", false, fn)
}

// LeastGaugeFunc is GaugeFunc for a ratio, which does not sum: it reads the
// least value its callbacks report, skipping negative ones (none yet), or -1.
func (r *Registry) LeastGaugeFunc(name, help string, fn func() int64) {
	r.addFunc(name, help, "gauge", true, fn)
}

// CounterFunc is GaugeFunc for a count that only grows: it renders as a
// counter.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.addFunc(name, help, "counter", false, fn)
}

func (r *Registry) addFunc(name, help, typ string, least bool, fn func() int64) {
	if r == nil {
		return
	}
	f := register(r, name, func() *Func { return &Func{help: help, typ: typ, least: least} })
	r.mu.Lock()
	f.fns = append(f.fns, fn)
	r.mu.Unlock()
}

// register returns the instrument registered under name, creating it with
// mk on first use, and panics if name holds a different kind.
func register[T any](r *Registry, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.insts[name]; ok {
		v, ok := in.(*T)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q already registered as %T", name, in))
		}
		return v
	}
	v := mk()
	r.insts[name] = v
	r.order = append(r.order, name)
	return v
}

// entry is one instrument as a render or a snapshot reads it: fns holds a
// Func's callbacks as registered when the entry was taken.
type entry struct {
	name string
	inst any
	fns  []func() int64
}

// entries lists the instruments in registration order. Only the listing
// holds r.mu: renders and snapshots read the values, and run the callbacks,
// after it is released, so a callback may take its owner's locks — or
// register an instrument — without deadlocking against the registry.
func (r *Registry) entries() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]entry, len(r.order))
	for i, name := range r.order {
		out[i] = entry{name: name, inst: r.insts[name]}
		if f, ok := out[i].inst.(*Func); ok {
			out[i].fns = f.fns
		}
	}
	return out
}

// flat reads one Counter or Func entry: its help, exposition type and
// value. ok is false for a histogram.
func (e entry) flat() (help, typ string, v int64, ok bool) {
	switch in := e.inst.(type) {
	case *Counter:
		return in.help, "counter", in.Value(), true
	case *Func:
		if in.least {
			v = -1
		}
		for _, fn := range e.fns {
			switch x := fn(); {
			case !in.least:
				v += x
			case x >= 0 && (v < 0 || x < v):
				v = x
			}
		}
		return in.help, in.typ, v, true
	}
	return "", "", 0, false
}

// Stat is one flattened metric sample: quantile histograms expand into
// `name{quantile="…"}`, `name_sum` and `name_count` summary entries,
// exactly like their Prometheus rendering.
type Stat struct {
	Name  string
	Value int64
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Families are emitted in registration order of
// their first member; HELP/TYPE headers appear once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	seen := make(map[string]bool)
	for _, e := range r.entries() {
		family := familyOf(e.name)
		if help, typ, v, ok := e.flat(); ok {
			if !seen[family] {
				seen[family] = true
				if err := writeHeader(w, family, help, typ); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, v); err != nil {
				return err
			}
			continue
		}
		q := e.inst.(*QHist)
		if !seen[family] {
			seen[family] = true
			if err := writeHeader(w, family, q.help, "summary"); err != nil {
				return err
			}
		}
		for i, v := range q.Quantiles(QuantilePoints...) {
			if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(e.name, "quantile", quantileLabels[i]), v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n", suffixed(e.name, "_sum"), q.Sum(), suffixed(e.name, "_count"), q.Count()); err != nil {
			return err
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
