package telemetry

import (
	"math"
	"runtime/metrics"
)

// RegisterRuntimeMetrics adds Go runtime gauges to the registry, backed
// by runtime/metrics and sampled lazily: the runtime is only consulted
// when the registry is rendered or snapshotted, so an idle node pays
// nothing for them. Call it once per registry: a second call would add
// each callback again, and the registry sums them.
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("pgrid_go_goroutines", "live goroutines", func() int64 {
		return runtimeUint64("/sched/goroutines:goroutines")
	})
	r.GaugeFunc("pgrid_go_heap_bytes", "bytes occupied by live heap objects plus unswept garbage", func() int64 {
		return runtimeUint64("/memory/classes/heap/objects:bytes")
	})
	r.GaugeFunc("pgrid_go_gc_pause_ns", "approximate cumulative GC stop-the-world pause time in nanoseconds (histogram bucket midpoints)", gcPauseNS)
}

// runtimeUint64 samples one uint64-valued runtime metric (0 if the
// runtime does not export it or exports a different kind).
func runtimeUint64(name string) int64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(s[0].Value.Uint64())
}

// gcPauseNS approximates total stop-the-world pause time by summing
// count×midpoint over the /gc/pauses:seconds histogram. The runtime only
// exports the distribution, not an exact total, so this carries the
// histogram's bucket-width error — fine for a trend gauge.
func gcPauseNS() int64 {
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	if h == nil || len(h.Buckets) != len(h.Counts)+1 {
		return 0
	}
	total := 0.0
	for i, n := range h.Counts {
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return int64(total * 1e9)
}
