package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// QHist is a log-bucketed quantile histogram over non-negative int64
// observations (latencies in nanoseconds), HDR-style: each power-of-two
// octave is split into qSubCount linear subbuckets, so any observation
// lands in a bucket whose width is at most 1/qSubCount of its magnitude
// and quantile estimates carry at most ~3% relative error (≤5% was the
// design bound). Observe is lock-free — one atomic add on the bucket plus
// count and sum — so it sits on RPC hot paths; Quantile walks a snapshot
// of the buckets.
//
// Values below 16 get a bucket each, so small discrete quantities (hop
// counts) are exact, while latency SLOs (p50/p95/p99/p999) get resolution
// across six orders of magnitude. Like every instrument it is nil-safe.
//
// The buckets are held as qOctaves octaves of qSubCount, each allocated
// the first time an observation lands in it: a latency histogram touches a
// handful of octaves, so it holds a few hundred bytes of counts, not the
// 7.7 kB of the whole range.
type QHist struct {
	name    string
	help    string
	octaves [qOctaves]atomic.Pointer[[qSubCount]atomic.Int64]
	count   atomic.Int64
	sum     atomic.Int64
	ex      atomic.Pointer[qExemplars]
}

// qExemplars holds the optional per-bucket exemplar slots: the most
// recent trace id observed in each bucket, in octaves allocated on first
// stamp like the counts. The block is allocated only when exemplars are
// enabled, so an untraced QHist pays one nil pointer load per
// ObserveTraced and nothing per Observe. tailQ is the quantile gate
// applied at snapshot time — only buckets at/above that rank emit their
// exemplar, keeping snapshots focused on the latency tail.
type qExemplars struct {
	tailQ float64
	ids   [qOctaves]atomic.Pointer[[qSubCount]atomic.Uint64]
}

const (
	// qSubBits sets the subbucket resolution: 2^qSubBits linear buckets
	// per octave. 4 → 16 subbuckets → worst-case relative error
	// 1/(2·16) ≈ 3.1%.
	qSubBits  = 4
	qSubCount = 1 << qSubBits
	// qBuckets covers the full non-negative int64 range: values below
	// qSubCount are exact (one bucket per value), and each of the
	// remaining 63-qSubBits octaves contributes qSubCount buckets.
	qBuckets = qSubCount + (63-qSubBits)*qSubCount
	// qOctaves is the number of qSubCount-bucket blocks: bucket i lives in
	// octave i>>qSubBits at slot i&(qSubCount-1).
	qOctaves = qBuckets / qSubCount
)

// octave returns the block *p points to, allocating it first if no
// observation has landed in it yet. Concurrent first touches race on the
// CAS; the loser adopts the winner's block, so no count is lost.
func octave[T any](p *atomic.Pointer[[qSubCount]T]) *[qSubCount]T {
	if o := p.Load(); o != nil {
		return o
	}
	p.CompareAndSwap(nil, new([qSubCount]T))
	return p.Load()
}

// bucket returns the counter of bucket i.
func (q *QHist) bucket(i int) *atomic.Int64 {
	return &octave(&q.octaves[i>>qSubBits])[i&(qSubCount-1)]
}

// qIndex maps a value to its bucket.
func qIndex(v int64) int {
	if v < qSubCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) // ≥ qSubBits+1
	sub := int(v>>(uint(e)-qSubBits-1)) & (qSubCount - 1)
	return qSubCount + (e-qSubBits-1)*qSubCount + sub
}

// qBounds returns the inclusive value range bucket i covers.
func qBounds(i int) (lo, hi int64) {
	if i < qSubCount {
		return int64(i), int64(i)
	}
	o := uint((i - qSubCount) / qSubCount)
	sub := int64(i % qSubCount)
	lo = (qSubCount + sub) << o
	return lo, lo + (1 << o) - 1
}

// Observe records one value. Negative values clamp to 0. No-op on a nil
// receiver.
func (q *QHist) Observe(v int64) {
	if q == nil {
		return
	}
	q.bucket(qIndex(v)).Add(1)
	q.count.Add(1)
	if v > 0 {
		q.sum.Add(v)
	}
}

// EnableExemplars switches on tail-bucket exemplar capture: ObserveTraced
// calls will stamp their trace id into the bucket they land in, and
// Snapshot emits the ids of buckets at/above the tailQ quantile (clamped
// to [0,1]; e.g. 0.99 keeps exemplars for the slowest ~1% of buckets).
// Idempotent; the first caller's tailQ wins. No-op on a nil receiver.
func (q *QHist) EnableExemplars(tailQ float64) {
	if q == nil {
		return
	}
	if tailQ < 0 {
		tailQ = 0
	}
	if tailQ > 1 {
		tailQ = 1
	}
	q.ex.CompareAndSwap(nil, &qExemplars{tailQ: tailQ})
}

// ObserveTraced records one value and, when exemplar capture is enabled
// and traceID is non-zero, stamps traceID as the landing bucket's most
// recent exemplar (one extra atomic store — still lock-free). With
// exemplars disabled or traceID zero it is exactly Observe.
func (q *QHist) ObserveTraced(v int64, traceID uint64) {
	if q == nil {
		return
	}
	i := qIndex(v)
	q.bucket(i).Add(1)
	q.count.Add(1)
	if v > 0 {
		q.sum.Add(v)
	}
	if traceID != 0 {
		if ex := q.ex.Load(); ex != nil {
			octave(&ex.ids[i>>qSubBits])[i&(qSubCount-1)].Store(traceID)
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (q *QHist) Count() int64 {
	if q == nil {
		return 0
	}
	return q.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (q *QHist) Sum() int64 {
	if q == nil {
		return 0
	}
	return q.sum.Load()
}

// Quantiles estimates several quantiles from one consistent snapshot of
// the occupied buckets, so p50 ≤ p95 ≤ p99 holds even while writers race.
func (q *QHist) Quantiles(ps ...float64) []int64 {
	return q.Snapshot().Quantiles(ps...)
}

// QuantilePoints is the quantile set pgrid renders everywhere: the SLO
// points p50, p95, p99, and p999.
var QuantilePoints = []float64{0.5, 0.95, 0.99, 0.999}

// quantileLabels is the Prometheus label value for each QuantilePoints
// entry, in order.
var quantileLabels = []string{"0.5", "0.95", "0.99", "0.999"}
