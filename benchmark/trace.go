package main

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"pgrid/internal/addr"
	"pgrid/internal/node"
	"pgrid/internal/resilience"
	"pgrid/internal/wire"
)

// The traced run puts a spanTransport above each layer of every stack. A
// span is named after the layer it encloses, so a layer's self time is its
// spans' total minus the total of the layer directly beneath.
const (
	layerInstrumented = iota // encloses node.InstrumentedTransport and all below
	layerResilience          // encloses resilience.ResilientTransport and all below
	layerPool                // encloses node.PoolTransport: one attempt's round trip
	layerOp                  // one client operation, recorded by the load generator
	numLayers
)

var layerNames = [numLayers]string{"node.instrumented", "resilience", "node.pool", "op"}

// clientStack is the stack id of the load generator's own stack.
const clientStack = -1

// span is one timed call. It holds no pointers, so millions of them cost
// the collector nothing.
type span struct {
	layer    uint8
	kind     uint8 // wire.Kind of the request, or opKind for an op span
	err      bool
	fastFail bool    // refused by an open breaker
	stack    int32   // node whose stack made the call, or clientStack
	to       int32   // callee
	op       int64   // op index on op spans and the client's top spans, else -1
	msg      uintptr // identity of the request; the layers pass it down unchanged
	start    int64   // ns since the recorder's epoch
	end      int64
	a, b     int32 // query spans: hops and backtracks reported; op spans: messages and queries/replicas
}

// sampled is one live request with its response, kept for the direct
// timings after the window (decoded messages share nothing with the codec's
// buffers, so holding them is safe).
type sampled struct {
	to   addr.Addr
	req  *wire.Message
	resp *wire.Message
}

// sampleEvery is the sampling period of live messages at the pool boundary.
const sampleEvery = 64

// recorder switches span recording on and off for all wrappers at once and
// gives them a common clock.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu       sync.Mutex
	wrappers []*spanTransport
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// wrap returns a recording transport around inner. op, when non-nil, is the
// index of the operation the calling worker is executing.
func (r *recorder) wrap(inner node.Transport, layer uint8, stack int, op *atomic.Int64) *spanTransport {
	t := &spanTransport{inner: inner, rec: r, layer: layer, stack: int32(stack), op: op}
	r.mu.Lock()
	r.wrappers = append(r.wrappers, t)
	r.mu.Unlock()
	return t
}

// drain returns every span and sample recorded so far and empties the
// wrappers.
func (r *recorder) drain() ([]span, []sampled) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var spans []span
	var samples []sampled
	for _, t := range r.wrappers {
		t.mu.Lock()
		spans = append(spans, t.spans...)
		samples = append(samples, t.samples...)
		t.spans, t.samples = nil, nil
		t.mu.Unlock()
	}
	return spans, samples
}

// spanTransport records one span per call while the recorder is on and is a
// plain pass-through while it is off.
type spanTransport struct {
	inner node.Transport
	rec   *recorder
	layer uint8
	stack int32
	op    *atomic.Int64

	mu      sync.Mutex
	spans   []span
	samples []sampled
	seen    int
}

func (t *spanTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	if !t.rec.on.Load() {
		return t.inner.Call(to, msg)
	}
	s := span{layer: t.layer, kind: uint8(msg.Kind), stack: t.stack, to: int32(to), op: -1,
		msg: uintptr(unsafe.Pointer(msg))}
	if t.op != nil {
		s.op = t.op.Load()
	}
	s.start = t.rec.now()
	resp, err := t.inner.Call(to, msg)
	s.end = t.rec.now()
	if err != nil {
		s.err = true
		s.fastFail = errors.Is(err, resilience.ErrBreakerOpen)
	} else if resp.QueryResp != nil {
		s.a, s.b = int32(resp.QueryResp.Messages), int32(resp.QueryResp.Backtracks)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if t.layer == layerPool && err == nil {
		if t.seen++; t.seen%sampleEvery == 0 {
			t.samples = append(t.samples, sampled{to: to, req: msg, resp: resp})
		}
	}
	t.mu.Unlock()
	return resp, err
}

// countingListener counts the bytes crossing the connections it accepts, in
// both directions: the wire volume of one node's server.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// layerTotals is what the spans of one window add up to.
type layerTotals struct {
	calls    [numLayers]int64
	ns       [numLayers]int64
	errs     [numLayers]int64
	fastFail int64 // resilience calls refused by an open breaker
	leafRTT  []int64
	queries  int64 // raw query responses seen by the load generator
	hops     int64
	backs    int64
}

func totals(spans []span) layerTotals {
	var t layerTotals
	for i := range spans {
		s := &spans[i]
		if s.layer == layerOp {
			continue
		}
		t.calls[s.layer]++
		t.ns[s.layer] += s.end - s.start
		if s.err {
			t.errs[s.layer]++
		}
		k := wire.Kind(s.kind)
		switch {
		case s.layer == layerResilience && s.fastFail:
			t.fastFail++
		case s.layer == layerPool && !s.err && (k == wire.KindGet || k == wire.KindApply):
			// The handler of a get or an apply makes no onward call, so this
			// round trip is transport and one Handle, nothing else.
			t.leafRTT = append(t.leafRTT, s.end-s.start)
		case s.layer == layerInstrumented && s.stack == clientStack && k == wire.KindQuery && !s.err:
			t.queries++
			t.hops += int64(s.a)
			t.backs += int64(s.b)
		}
	}
	slices.Sort(t.leafRTT)
	return t
}

// maxSpansWritten bounds the trace file; the totals above use every span.
const maxSpansWritten = 50000

// spanJSON is the on-disk form of a span. Parent is the id of the span
// that caused this one, 0 for none: an op has none, and neither has the top
// span on a forwarding node, because Transport.Call carries no context
// across the wire.
type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Stack   int32  `json:"stack"`
	To      int32  `json:"to"`
	Op      int64  `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Err     bool   `json:"err,omitempty"`
}

// writeSpans writes the earliest maxSpansWritten spans with their parents
// resolved. Within one stack a request keeps its *wire.Message through all
// three layers, so a span's parent is the span one layer up with the same
// request that encloses it in time; the client's top span hangs under its
// op.
func writeSpans(path string, meta map[string]any, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	if len(spans) > maxSpansWritten {
		spans = spans[:maxSpansWritten]
	}
	type reqKey struct {
		stack int32
		msg   uintptr
	}
	byReq := map[reqKey][]int{}
	opSpan := map[int64]int{}
	for i := range spans {
		s := &spans[i]
		if s.layer == layerOp {
			opSpan[s.op] = i + 1
		} else {
			k := reqKey{s.stack, s.msg}
			byReq[k] = append(byReq[k], i)
		}
	}
	out := make([]spanJSON, len(spans))
	for i := range spans {
		s := &spans[i]
		j := spanJSON{ID: i + 1, Name: layerNames[s.layer], Stack: s.stack, To: s.to, Op: s.op,
			StartNS: s.start, EndNS: s.end, Err: s.err}
		switch {
		case s.layer == layerOp:
			j.Name = "op." + opKindNames[s.kind]
			j.Kind = opKindNames[s.kind]
		case s.layer == layerInstrumented:
			j.Kind = wire.Kind(s.kind).String()
			j.Parent = opSpan[s.op]
		default:
			j.Kind = wire.Kind(s.kind).String()
			for _, c := range byReq[reqKey{s.stack, s.msg}] {
				p := &spans[c]
				if c < i && p.layer == s.layer-1 && p.start <= s.start && p.end >= s.end {
					// The latest enclosing one wins: pointers are reused over time.
					j.Parent, j.Op = c+1, out[c].Op
				}
			}
		}
		out[i] = j
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"meta": meta, "spans": out}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
