package telemetry

import (
	"io"
	"testing"
	"time"
)

// The nil fast path is what the construction hot loop pays when telemetry
// is disabled — it must stay at a branch and a return.
func BenchmarkExchangeCaseNil(b *testing.B) {
	var in *Instruments
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.ExchangeCase(ExCase1)
	}
}

func BenchmarkExchangeCaseEnabled(b *testing.B) {
	in := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.ExchangeCase(i % 6)
	}
}

func BenchmarkObserveQueryEnabled(b *testing.B) {
	in := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.ObserveQuery(true, i%8, i%3)
	}
}

func BenchmarkClientRPCEnabled(b *testing.B) {
	in := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.ClientRPC("query", time.Duration(i), nil)
	}
}

func BenchmarkEmitNoSink(b *testing.B) {
	in := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Emit(KindRound, nil)
	}
}

// BenchmarkEmitJSONL is the generic path (json.Marshal), which only the
// simulator's round and build samples take.
func BenchmarkEmitJSONL(b *testing.B) {
	in := New(0)
	in.SetSink(NewJSONLSink(io.Discard))
	attrs := map[string]any{"meetings": int64(500), "exchanges": int64(1234), "avg_path_len": 3.25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Emit(KindRound, attrs)
	}
}

// BenchmarkEmitExchangeJSONL is what a meeting pays for its event.
func BenchmarkEmitExchangeJSONL(b *testing.B) {
	in := New(1)
	in.SetSink(NewJSONLSink(io.Discard))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.EmitExchange("replica", 3, 0, 7, 9)
	}
}

func BenchmarkQHistObserve(b *testing.B) {
	var h QHist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*31 + 1)
	}
}
