package node

import (
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
	"pgrid/internal/wire"
)

// InstrumentedTransport wraps a Transport and records every outbound call —
// kind, round-trip latency, and failure — into a telemetry bundle. Wrap the
// outermost transport (outside the tests' fault injector in
// chaos_harness_test.go) so injected drops are measured as the client sees
// them: failed calls.
//
// With a slow-op threshold set, calls that exceed it are additionally
// counted and recorded into a flight recorder with their span context, so
// a tail-latency incident leaves inspectable evidence at /debug/slow.
type InstrumentedTransport struct {
	inner Transport
	tel   *telemetry.Instruments
	slow  time.Duration
	rec   *trace.Recorder
}

// InstrumentTransport wraps inner. A nil tel returns inner unchanged, so
// callers can wire the wrapper unconditionally.
func InstrumentTransport(inner Transport, tel *telemetry.Instruments) Transport {
	return InstrumentTransportSlow(inner, tel, 0, nil)
}

// InstrumentTransportSlow is InstrumentTransport plus a slow-op log: calls
// taking slow or longer are counted per kind and recorded into rec (the
// slow-op flight recorder; nil disables recording but keeps the counter).
// slow <= 0 disables the slow-op log entirely.
func InstrumentTransportSlow(inner Transport, tel *telemetry.Instruments, slow time.Duration, rec *trace.Recorder) Transport {
	if tel == nil {
		return inner
	}
	return &InstrumentedTransport{inner: inner, tel: tel, slow: slow, rec: rec}
}

// rpcKind returns tel's instruments for a wire kind, by its code.
func rpcKind(tel *telemetry.Instruments, k wire.Kind) *telemetry.RPCKind {
	return tel.RPCKind(uint8(k), k.String())
}

// Call implements Transport.
func (t *InstrumentedTransport) Call(to addr.Addr, msg *wire.Message) (*wire.Message, error) {
	start := time.Now()
	resp, err := t.inner.Call(to, msg)
	d := time.Since(start)
	rpc := rpcKind(t.tel, msg.Kind)
	rpc.Client(d, err)
	if t.tel.EventsOn() {
		t.tel.EmitRPC(msg.Kind.String(), int(to), d.Microseconds())
	}
	if t.slow > 0 && d >= t.slow {
		rpc.Slow()
		t.recordSlow(to, msg, d, err)
	}
	return resp, err
}

// recordSlow files one over-threshold call into the slow-op recorder,
// reusing the query's span context when the message carries one so the
// slow op can be correlated with its distributed trace.
func (t *InstrumentedTransport) recordSlow(to addr.Addr, msg *wire.Message, d time.Duration, err error) {
	if t.rec == nil {
		return
	}
	var id uint64
	var key bitpath.Path
	if msg.Query != nil {
		key = msg.Query.Key
		if msg.Query.Ctx != nil {
			id = msg.Query.Ctx.TraceID
		}
	}
	if id == 0 {
		id = trace.NewTraceID(uint64(msg.From), uint64(to)^uint64(d))
	}
	t.rec.Record(trace.Trace{
		TraceID: id,
		Key:     key,
		Found:   err == nil,
		Spans: []trace.Span{{
			ID:        id,
			Peer:      to,
			Path:      key,
			LatencyNS: d.Nanoseconds(),
		}},
	})
}
