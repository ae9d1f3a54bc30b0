package telemetry

import (
	"fmt"
	"time"
)

// MetricsSchemaVersion versions the mergeable metrics snapshot carried by
// the metrics column of wire.KindObserveResp: the flattened counter/gauge Stats plus the sparse
// QHistSnapshot encoding below. Bump it when the snapshot layout or the
// histogram bucket geometry changes incompatibly.
//
// v1: Stats + Hists (Idx/N sparse buckets).
// v2: adds StartEpochNS/UptimeNS incarnation stamps on the snapshot and
// tail-bucket exemplars (ExIdx/ExTrace) on QHistSnapshot. The binary
// codec keys the extra fields off the Schema value it decodes, so v1
// bodies from pre-history peers still decode against a v2 reader.
const MetricsSchemaVersion = 2

// MetricsSchemaV1 is the pre-history snapshot layout, kept as a named
// constant because the codecs and compat tests must keep decoding it.
const MetricsSchemaV1 = 1

// QHistSnapshot is a point-in-time, mergeable copy of one QHist in a
// compact sparse encoding: only occupied buckets are carried, as parallel
// (Idx, N) arrays sorted by ascending bucket index. Because QHist buckets
// are plain counts (not cumulative), two snapshots taken on different
// nodes merge by summing counts bucket-by-bucket, and quantiles computed
// from the merged snapshot carry the same ≤3.2% worst-case relative error
// as a histogram that observed the union of both value streams directly.
//
// SubBits records the bucket geometry (QHist's qSubBits) so a snapshot
// from a build with a different resolution is rejected at merge time
// instead of silently mis-bucketed.
type QHistSnapshot struct {
	Name    string
	SubBits uint8
	Count   int64
	Sum     int64
	Idx     []uint16
	N       []int64
	// ExIdx/ExTrace are parallel tail-bucket exemplars (schema v2): the
	// most recent trace id observed in bucket ExIdx[i], emitted only for
	// occupied buckets at/above the histogram's exemplar quantile. They
	// are informational pointers into the flight recorder, not counts,
	// so merging keeps either side's id and subtraction keeps the
	// current side's.
	ExIdx   []uint16
	ExTrace []uint64
}

// Snapshot copies the histogram's occupied buckets into the sparse
// mergeable form. Count is recomputed from the bucket sweep so Count ==
// ΣN holds even while writers race. When exemplars are enabled, buckets
// at/above the configured tail quantile carry their most recent trace
// id. Nil-safe: a nil QHist yields an empty (but geometry-stamped)
// snapshot.
func (q *QHist) Snapshot() QHistSnapshot {
	s := QHistSnapshot{SubBits: qSubBits}
	if q == nil {
		return s
	}
	s.Name = q.name
	for o := range q.octaves {
		b := q.octaves[o].Load()
		if b == nil {
			continue
		}
		for j := range b {
			if n := b[j].Load(); n > 0 {
				s.Idx = append(s.Idx, uint16(o<<qSubBits|j))
				s.N = append(s.N, n)
				s.Count += n
			}
		}
	}
	s.Sum = q.sum.Load()
	if ex := q.ex.Load(); ex != nil && s.Count > 0 {
		// Rank of the first "tail" observation: buckets whose cumulative
		// count reaches it are at/above the tail quantile.
		rank := int64(ex.tailQ * float64(s.Count))
		if rank < 1 {
			rank = 1
		}
		cum := int64(0)
		for i, idx := range s.Idx {
			cum += s.N[i]
			if cum < rank {
				continue
			}
			ids := ex.ids[idx>>qSubBits].Load()
			if ids == nil {
				continue
			}
			if id := ids[idx&(qSubCount-1)].Load(); id != 0 {
				s.ExIdx = append(s.ExIdx, idx)
				s.ExTrace = append(s.ExTrace, id)
			}
		}
	}
	return s
}

// Empty reports whether the snapshot holds no observations.
func (s QHistSnapshot) Empty() bool { return len(s.Idx) == 0 }

// Validate checks structural invariants: parallel arrays, strictly
// ascending in-range bucket indexes, positive counts, Count == ΣN, and a
// bucket geometry this build can interpret. An empty snapshot with
// SubBits 0 (the zero value) is valid — it merges as the identity.
func (s QHistSnapshot) Validate() error {
	if len(s.Idx) != len(s.N) {
		return fmt.Errorf("telemetry: snapshot %q: %d indexes vs %d counts", s.Name, len(s.Idx), len(s.N))
	}
	if s.SubBits != qSubBits && !(s.SubBits == 0 && s.Empty()) {
		return fmt.Errorf("telemetry: snapshot %q: bucket geometry 2^%d subbuckets, this build uses 2^%d", s.Name, s.SubBits, qSubBits)
	}
	total := int64(0)
	for i, idx := range s.Idx {
		if int(idx) >= qBuckets {
			return fmt.Errorf("telemetry: snapshot %q: bucket index %d out of range", s.Name, idx)
		}
		if i > 0 && idx <= s.Idx[i-1] {
			return fmt.Errorf("telemetry: snapshot %q: bucket indexes not ascending at %d", s.Name, i)
		}
		if s.N[i] <= 0 {
			return fmt.Errorf("telemetry: snapshot %q: non-positive count %d in bucket %d", s.Name, s.N[i], idx)
		}
		total += s.N[i]
	}
	if total != s.Count {
		return fmt.Errorf("telemetry: snapshot %q: count %d != bucket sum %d", s.Name, s.Count, total)
	}
	if len(s.ExIdx) != len(s.ExTrace) {
		return fmt.Errorf("telemetry: snapshot %q: %d exemplar indexes vs %d trace ids", s.Name, len(s.ExIdx), len(s.ExTrace))
	}
	for i, idx := range s.ExIdx {
		if int(idx) >= qBuckets {
			return fmt.Errorf("telemetry: snapshot %q: exemplar bucket index %d out of range", s.Name, idx)
		}
		if i > 0 && idx <= s.ExIdx[i-1] {
			return fmt.Errorf("telemetry: snapshot %q: exemplar indexes not ascending at %d", s.Name, i)
		}
		if s.ExTrace[i] == 0 {
			return fmt.Errorf("telemetry: snapshot %q: zero trace id in exemplar bucket %d", s.Name, idx)
		}
	}
	return nil
}

// MergeQHist returns the bucket-wise sum of two snapshots — the snapshot
// a single histogram would have produced had it observed both nodes'
// value streams. Either side may be the zero value (identity). Merging
// snapshots with different bucket geometries is an error: their indexes
// name different value ranges and summing them would corrupt quantiles.
func MergeQHist(a, b QHistSnapshot) (QHistSnapshot, error) {
	if a.Empty() && a.SubBits == 0 {
		a.SubBits = b.SubBits
	}
	if b.Empty() && b.SubBits == 0 {
		b.SubBits = a.SubBits
	}
	if a.SubBits != b.SubBits {
		return QHistSnapshot{}, fmt.Errorf("telemetry: merge %q: bucket geometry mismatch (2^%d vs 2^%d subbuckets)", a.Name, a.SubBits, b.SubBits)
	}
	out := QHistSnapshot{
		Name:    a.Name,
		SubBits: a.SubBits,
		Count:   a.Count + b.Count,
		Sum:     a.Sum + b.Sum,
		Idx:     make([]uint16, 0, len(a.Idx)+len(b.Idx)),
		N:       make([]int64, 0, len(a.Idx)+len(b.Idx)),
	}
	if out.Name == "" {
		out.Name = b.Name
	}
	i, j := 0, 0
	for i < len(a.Idx) || j < len(b.Idx) {
		switch {
		case j >= len(b.Idx) || (i < len(a.Idx) && a.Idx[i] < b.Idx[j]):
			out.Idx = append(out.Idx, a.Idx[i])
			out.N = append(out.N, a.N[i])
			i++
		case i >= len(a.Idx) || b.Idx[j] < a.Idx[i]:
			out.Idx = append(out.Idx, b.Idx[j])
			out.N = append(out.N, b.N[j])
			j++
		default: // same bucket on both sides
			out.Idx = append(out.Idx, a.Idx[i])
			out.N = append(out.N, a.N[i]+b.N[j])
			i++
			j++
		}
	}
	out.ExIdx, out.ExTrace = mergeExemplars(a, b)
	return out, nil
}

// mergeExemplars unions two snapshots' exemplar lists. On a shared
// bucket b's id wins: crawls merge peers into an accumulator left to
// right, so the later (more recently fetched) side is kept.
func mergeExemplars(a, b QHistSnapshot) (idx []uint16, ids []uint64) {
	i, j := 0, 0
	for i < len(a.ExIdx) || j < len(b.ExIdx) {
		switch {
		case j >= len(b.ExIdx) || (i < len(a.ExIdx) && a.ExIdx[i] < b.ExIdx[j]):
			idx = append(idx, a.ExIdx[i])
			ids = append(ids, a.ExTrace[i])
			i++
		case i >= len(a.ExIdx) || b.ExIdx[j] < a.ExIdx[i]:
			idx = append(idx, b.ExIdx[j])
			ids = append(ids, b.ExTrace[j])
			j++
		default:
			idx = append(idx, b.ExIdx[j])
			ids = append(ids, b.ExTrace[j])
			i++
			j++
		}
	}
	return idx, ids
}

// SubtractQHist returns the windowed delta cur − base: the snapshot a
// histogram would have produced had it observed only the interval
// between base and cur. Exemplars come from cur (they are "most recent"
// pointers, still valid for the window). reset reports that cur does
// not extend base — some bucket shrank, which happens exactly when the
// process restarted between the two samples — in which case cur itself
// is returned and callers should treat the window as starting at the
// restart rather than synthesizing a negative rate. Geometry mismatch
// is an error as in MergeQHist.
func SubtractQHist(cur, base QHistSnapshot) (delta QHistSnapshot, reset bool, err error) {
	if base.Empty() && base.SubBits == 0 {
		base.SubBits = cur.SubBits
	}
	if cur.Empty() && cur.SubBits == 0 {
		cur.SubBits = base.SubBits
	}
	if cur.SubBits != base.SubBits {
		return QHistSnapshot{}, false, fmt.Errorf("telemetry: subtract %q: bucket geometry mismatch (2^%d vs 2^%d subbuckets)", cur.Name, cur.SubBits, base.SubBits)
	}
	out := QHistSnapshot{
		Name:    cur.Name,
		SubBits: cur.SubBits,
		ExIdx:   cur.ExIdx,
		ExTrace: cur.ExTrace,
	}
	j := 0
	for i, idx := range cur.Idx {
		n := cur.N[i]
		for j < len(base.Idx) && base.Idx[j] < idx {
			// base observed a bucket cur no longer has: a reset.
			return cur, true, nil
		}
		if j < len(base.Idx) && base.Idx[j] == idx {
			n -= base.N[j]
			j++
		}
		if n < 0 {
			return cur, true, nil
		}
		if n > 0 {
			out.Idx = append(out.Idx, idx)
			out.N = append(out.N, n)
			out.Count += n
		}
	}
	if j < len(base.Idx) {
		return cur, true, nil
	}
	out.Sum = cur.Sum - base.Sum
	if out.Sum < 0 {
		out.Sum = 0
	}
	return out, false, nil
}

// Quantiles estimates the given quantiles from the snapshot: each is the
// midpoint of the bucket holding the rank-⌊p·count⌋ observation (at least
// the first). Returns zeros for an empty snapshot.
func (s QHistSnapshot) Quantiles(ps ...float64) []int64 {
	out := make([]int64, len(ps))
	total := int64(0)
	for _, n := range s.N {
		total += n
	}
	if total == 0 {
		return out
	}
	for j, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		rank := int64(p * float64(total))
		if rank < 1 {
			rank = 1
		}
		cum := int64(0)
		for i, n := range s.N {
			cum += n
			if cum >= rank {
				lo, hi := qBounds(int(s.Idx[i]))
				out[j] = lo + (hi-lo)/2
				break
			}
		}
	}
	return out
}

// Quantile estimates one quantile from the snapshot.
func (s QHistSnapshot) Quantile(p float64) int64 { return s.Quantiles(p)[0] }

// CountAtOrBelow returns how many observations landed in buckets whose
// midpoint is ≤ v — the "good event" count for a latency SLO with
// threshold v. The bucket containing v is counted entirely good or
// entirely bad by its midpoint, so the split inherits the histogram's
// ≤3.2% bucket-width error.
func (s QHistSnapshot) CountAtOrBelow(v int64) int64 {
	good := int64(0)
	for i, idx := range s.Idx {
		lo, hi := qBounds(int(idx))
		if lo+(hi-lo)/2 > v {
			break
		}
		good += s.N[i]
	}
	return good
}

// MetricsSnapshot is one node's full telemetry state in mergeable form:
// counters and gauges flattened to Stats (cumulative values, so summing
// across nodes is the cluster total), and every quantile histogram as a
// sparse QHistSnapshot.
type MetricsSnapshot struct {
	Schema int
	// StartEpochNS identifies the process incarnation (node start time,
	// unix nanoseconds) and UptimeNS the monotonic time since then
	// (schema v2; both zero on v1 snapshots and bare-registry captures).
	// Two snapshots with different epochs must never be delta'd — the
	// counters restarted from zero in between.
	StartEpochNS int64
	UptimeNS     int64
	Stats        []Stat
	Hists        []QHistSnapshot
}

// SameEpoch reports whether two snapshots come from the same process
// incarnation, i.e. whether computing b−a deltas is meaningful. Unknown
// epochs (0, from v1 peers) are conservatively treated as same.
func (m MetricsSnapshot) SameEpoch(b MetricsSnapshot) bool {
	if m.StartEpochNS == 0 || b.StartEpochNS == 0 {
		return true
	}
	return m.StartEpochNS == b.StartEpochNS
}

// Hist returns the named histogram snapshot and whether it was present.
func (m MetricsSnapshot) Hist(name string) (QHistSnapshot, bool) {
	for _, h := range m.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return QHistSnapshot{}, false
}

// Stat returns the named flat sample's value and whether it was present.
func (m MetricsSnapshot) Stat(name string) (int64, bool) {
	for _, s := range m.Stats {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// MetricsSnapshot captures the registry's full state for federation.
// Unlike Snapshot, quantile histograms are not pre-rendered to their
// summary quantiles (which cannot be merged) but carried as sparse bucket
// snapshots. Nil-safe: a nil registry yields an empty, schema-stamped
// snapshot.
func (r *Registry) MetricsSnapshot() MetricsSnapshot {
	m := MetricsSnapshot{Schema: MetricsSchemaVersion}
	if r == nil {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		switch in := r.insts[name].(type) {
		case *Counter:
			m.Stats = append(m.Stats, Stat{Name: name, Value: in.Value()})
		case *Gauge:
			m.Stats = append(m.Stats, Stat{Name: name, Value: in.Value()})
		case *GaugeFunc:
			m.Stats = append(m.Stats, Stat{Name: name, Value: in.Value()})
		case *QHist:
			m.Hists = append(m.Hists, in.Snapshot())
		}
	}
	return m
}

// MetricsSnapshot captures the instruments' registry for federation,
// stamped with the process incarnation (start epoch + monotonic uptime)
// so downstream delta math can tell restarts from negative rates.
// Nil-safe.
func (t *Instruments) MetricsSnapshot() MetricsSnapshot {
	if t == nil {
		return MetricsSnapshot{Schema: MetricsSchemaVersion}
	}
	m := t.reg.MetricsSnapshot()
	m.StartEpochNS = t.start.UnixNano()
	m.UptimeNS = int64(time.Since(t.start))
	return m
}
