package analysis

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/slo"
	"pgrid/internal/telemetry"
	"pgrid/internal/wire"
)

// PathCensus is one replica group of a crawled community: every peer
// answering for the same responsibility path.
type PathCensus struct {
	Path bitpath.Path
	// Replicas holds the group's peers, sorted by address.
	Replicas []addr.Addr
	// Entries is the largest index size reported in the group (replicas
	// of one path should hold the same index).
	Entries int
	// MaxVersion is the freshest entry version seen in the group.
	MaxVersion uint64
	// DistinctHashes counts distinct index fingerprints among the
	// replicas: 1 means the group is in sync, more means update
	// propagation has not (yet) reached every replica.
	DistinctHashes int
}

// Divergent reports whether the group's replicas disagree on their index.
func (pc PathCensus) Divergent() bool { return pc.DistinctHashes > 1 }

// GridReport is the structural health view computed from a set of crawled
// digests — the observability twin of the Section 4 model: instead of
// predicting availability from assumed parameters, it derives the
// parameters (depth, reference counts, online probability) from the
// measured community and compares equation (3)'s prediction against the
// measured probe success.
type GridReport struct {
	// Peers is the number of digests aggregated; Census the replica
	// groups, sorted by path.
	Peers  int
	Census []PathCensus

	// MeanDepth, MinDepth and MaxDepth describe the responsibility-path
	// lengths — how deep, and how evenly, the trie has specialized.
	MeanDepth float64
	MinDepth  int
	MaxDepth  int
	// ReplicaImbalance is the largest replica group divided by the mean
	// group size: 1 means uniform partitioning, the construction
	// algorithm's target.
	ReplicaImbalance float64
	// DivergentPaths counts replica groups whose members disagree on
	// their index fingerprint.
	DivergentPaths int

	// ProbedPeers counts digests that carried probe data; ProbesLive and
	// ProbesDead aggregate their tallies. ProbeLiveness is the measured
	// online probability p̂ = live/(live+dead), and StaleRefRate its
	// complement — both -1 when no peer has probed yet.
	ProbedPeers   int
	ProbesLive    int64
	ProbesDead    int64
	ProbeLiveness float64
	StaleRefRate  float64

	// MeasuredAvailability is the fraction of probed peers whose every
	// probed level saw at least one live reference — peers that can route
	// at full depth right now. PredictedAvailability generalizes
	// equation (3) to the measured structure: the mean over all peers of
	// ∏ over their levels of (1-(1-p̂)^r_level), with r_level the peer's
	// actual reference count at that level. Both are -1 without probe
	// data.
	MeasuredAvailability  float64
	PredictedAvailability float64

	// Repair aggregates the community's self-healing state when repair
	// statuses were attached (AttachRepair); Repair.Reporting is 0 when
	// the crawl found no repairer anywhere.
	Repair RepairSummary

	// Eq3RefMax, Eq3Depth and Eq3Availability state the closed-form
	// equation (3) at the community's typical shape: refmax = the mean
	// per-level reference count, k = the mean depth (both rounded), at
	// online probability p̂. This is the number the Section 4 model would
	// have predicted for a uniform grid of this size.
	Eq3RefMax       int
	Eq3Depth        int
	Eq3Availability float64
}

// AnalyzeGrid aggregates crawled digests into the structural report.
func AnalyzeGrid(digests []health.Digest) GridReport {
	r := GridReport{
		Peers:                 len(digests),
		ProbeLiveness:         -1,
		StaleRefRate:          -1,
		MeasuredAvailability:  -1,
		PredictedAvailability: -1,
		Eq3Availability:       -1,
	}
	if len(digests) == 0 {
		return r
	}

	groups := make(map[bitpath.Path][]health.Digest)
	depthSum, refSum, refLevels := 0, 0, 0
	r.MinDepth = math.MaxInt
	for _, d := range digests {
		groups[d.Path] = append(groups[d.Path], d)
		depth := d.Path.Len()
		depthSum += depth
		if depth < r.MinDepth {
			r.MinDepth = depth
		}
		if depth > r.MaxDepth {
			r.MaxDepth = depth
		}
		for _, rc := range d.RefCounts {
			refSum += rc
			refLevels++
		}
		r.ProbesLive += liveSum(d.Liveness)
		r.ProbesDead += deadSum(d.Liveness)
		if len(d.Liveness) > 0 {
			r.ProbedPeers++
		}
	}
	r.MeanDepth = float64(depthSum) / float64(len(digests))

	maxGroup := 0
	for path, ds := range groups {
		pc := PathCensus{Path: path}
		hashes := map[uint64]bool{}
		for _, d := range ds {
			pc.Replicas = append(pc.Replicas, d.Addr)
			if d.Entries > pc.Entries {
				pc.Entries = d.Entries
			}
			if d.MaxVersion > pc.MaxVersion {
				pc.MaxVersion = d.MaxVersion
			}
			hashes[d.IndexHash] = true
		}
		sort.Slice(pc.Replicas, func(i, j int) bool { return pc.Replicas[i] < pc.Replicas[j] })
		pc.DistinctHashes = len(hashes)
		if pc.Divergent() {
			r.DivergentPaths++
		}
		if len(pc.Replicas) > maxGroup {
			maxGroup = len(pc.Replicas)
		}
		r.Census = append(r.Census, pc)
	}
	sort.Slice(r.Census, func(i, j int) bool {
		return bitpath.Compare(r.Census[i].Path, r.Census[j].Path) < 0
	})
	r.ReplicaImbalance = float64(maxGroup) * float64(len(r.Census)) / float64(len(digests))

	if r.ProbesLive+r.ProbesDead == 0 {
		return r
	}
	p := float64(r.ProbesLive) / float64(r.ProbesLive+r.ProbesDead)
	r.ProbeLiveness = p
	r.StaleRefRate = 1 - p

	// Measured: a peer is "available" when every level it probed has at
	// least one live reference — it can route at full depth right now.
	available := 0
	for _, d := range digests {
		if len(d.Liveness) == 0 {
			continue
		}
		ok := true
		for _, lp := range d.Liveness {
			if lp.Live == 0 {
				ok = false
				break
			}
		}
		if ok {
			available++
		}
	}
	r.MeasuredAvailability = float64(available) / float64(r.ProbedPeers)

	// Predicted: equation (3) per peer over its actual reference counts,
	// averaged — the structural generalization of (1-(1-p)^refmax)^k.
	predSum := 0.0
	for _, d := range digests {
		pred := 1.0
		for level := 1; level <= d.Path.Len(); level++ {
			rc := 0
			if level <= len(d.RefCounts) {
				rc = d.RefCounts[level-1]
			}
			pred *= 1 - math.Pow(1-p, float64(rc))
		}
		predSum += pred
	}
	r.PredictedAvailability = predSum / float64(len(digests))

	r.Eq3Depth = int(math.Round(r.MeanDepth))
	r.Eq3RefMax = 1
	if refLevels > 0 {
		if rm := int(math.Round(float64(refSum) / float64(refLevels))); rm > 1 {
			r.Eq3RefMax = rm
		}
	}
	r.Eq3Availability = SuccessProbability(p, r.Eq3RefMax, r.Eq3Depth)
	return r
}

// RepairSummary aggregates per-peer repair statuses into one community
// verdict, so a grid report distinguishes a community that is structurally
// sound ("healthy"), one actively converging back ("repairing"), and one
// that detects faults it cannot heal ("stuck").
type RepairSummary struct {
	// Reporting counts peers that answered with repair enabled.
	Reporting int
	// Rounds, Faults and Heals are cumulative across reporting peers.
	Rounds int64
	Faults int64
	Heals  int64
	// Unhealed sums the faults the reporting peers' last rounds left
	// standing — the community's current structural debt.
	Unhealed int64
	// State is "healthy", "repairing" or "stuck" ("" with no reporters),
	// per repair.State over the aggregated last-round tallies.
	State string
}

// AttachRepair folds per-peer repair statuses (as crawled alongside the
// health digests) into the report. Disabled statuses count as absent.
func (r *GridReport) AttachRepair(statuses []repair.Status) {
	var s RepairSummary
	var lastHeals int64
	for _, st := range statuses {
		if !st.Enabled {
			continue
		}
		s.Reporting++
		s.Rounds += st.Rounds
		s.Faults += st.TotalFaults()
		s.Heals += st.TotalHeals()
		s.Unhealed += st.LastUnhealed
		lastHeals += st.LastHeals
	}
	s.State = repair.State(s.Reporting > 0, lastHeals, s.Unhealed)
	r.Repair = s
}

// RenderGridReport writes the report as the text table pgridsim and
// `pgridctl cluster` print.
func RenderGridReport(w io.Writer, r GridReport) {
	fmt.Fprintf(w, "peers          %d over %d paths\n", r.Peers, len(r.Census))
	if r.Peers == 0 {
		return
	}
	fmt.Fprintf(w, "depth          mean %.2f, min %d, max %d\n", r.MeanDepth, r.MinDepth, r.MaxDepth)
	fmt.Fprintf(w, "balance        replica imbalance %.2f (1.00 = uniform partitioning)\n", r.ReplicaImbalance)
	if r.ProbeLiveness >= 0 {
		fmt.Fprintf(w, "refs           %d probes on %d peers: liveness %.2f, stale %.1f%%\n",
			r.ProbesLive+r.ProbesDead, r.ProbedPeers, r.ProbeLiveness, 100*r.StaleRefRate)
		fmt.Fprintf(w, "availability   measured %.3f, predicted %.3f, Eq.3(p=%.2f, refmax=%d, k=%d) %.3f\n",
			r.MeasuredAvailability, r.PredictedAvailability, r.ProbeLiveness, r.Eq3RefMax, r.Eq3Depth, r.Eq3Availability)
	} else {
		fmt.Fprintf(w, "refs           no probe data (run nodes with probing enabled)\n")
	}
	fmt.Fprintf(w, "divergence     %d of %d paths have replicas with differing indexes\n",
		r.DivergentPaths, len(r.Census))
	if r.Repair.Reporting > 0 {
		fmt.Fprintf(w, "repair         %s: %d peers reporting, %d rounds, %d faults / %d heals, %d unhealed\n",
			r.Repair.State, r.Repair.Reporting, r.Repair.Rounds, r.Repair.Faults, r.Repair.Heals, r.Repair.Unhealed)
	}
	fmt.Fprintf(w, "census         %-10s %-24s %8s %8s %7s\n", "path", "replicas", "entries", "maxver", "hashes")
	for _, pc := range r.Census {
		path := pc.Path.String()
		if path == "" {
			path = "ε"
		}
		fmt.Fprintf(w, "               %-10s %-24s %8d %8d %7d\n",
			path, addrList(pc.Replicas), pc.Entries, pc.MaxVersion, pc.DistinctHashes)
	}
}

// RenderObserve writes each column o carries, as `pgridctl observe` and the
// admin port's /debug/observe?format=text print peer a's answer: the links;
// the health digest, then one line per probed level; the repair verdict,
// rounds and per-class fault and heal tallies; the traces, newest first, then
// their route analysis for a community of nPeers (0 leaves out the log2(n)
// bound); the history's trend report, judging objectives over its window;
// then the metrics, one flattened series a line.
func RenderObserve(w io.Writer, a addr.Addr, o *wire.ObserveResp, nPeers int, objectives []slo.Objective) {
	if l := o.Links; l != nil {
		fmt.Fprintf(w, "node %v\n  path     %s\n  entries  %d\n  buddies  %v\n", a, l.Path, l.Entries, l.Buddies.Addrs)
		for i, rs := range l.Refs {
			fmt.Fprintf(w, "  level %2d %v\n", i+1, rs.Addrs)
		}
	}
	if h := o.Health; h != nil {
		fmt.Fprintf(w, "node %v health (%d probe rounds)\n  %s\n", a, h.Rounds, h.Digest)
		for _, lp := range h.Digest.Liveness {
			r, _ := lp.Ratio()
			fmt.Fprintf(w, "  level %2d liveness %.2f (%d live / %d dead)\n", lp.Level, r, lp.Live, lp.Dead)
		}
	}
	if st := o.Repair; st != nil {
		fmt.Fprintf(w, "node %v repair\n", a)
		if !st.Enabled {
			fmt.Fprintln(w, "repair disabled")
		} else {
			fmt.Fprintf(w, "state    %s\nrounds   %d (%d messages)\nlast     %d faults / %d heals / %d unhealed\n",
				repair.State(true, st.LastHeals, st.LastUnhealed), st.Rounds, st.Messages,
				st.LastFaults, st.LastHeals, st.LastUnhealed)
			for _, t := range st.Faults {
				fmt.Fprintf(w, "fault    %-18s %6d\n", t.Name, t.N)
			}
			for _, t := range st.Heals {
				fmt.Fprintf(w, "heal     %-18s %6d\n", t.Name, t.N)
			}
		}
	}
	if col := o.Traces; col != nil {
		fmt.Fprintf(w, "node %v flight recorder: %d retained (of %d ever recorded)\n", a, len(col.Traces), col.Total)
		for _, t := range col.Traces {
			fmt.Fprintf(w, "  %016x %s\n", t.TraceID, t)
		}
		if len(col.Traces) > 0 {
			fmt.Fprintln(w, "route analysis:")
			RenderTraceReport(w, AnalyzeTraces(col.Traces, nPeers))
		}
	}
	if o.History != nil {
		r, _ := AnalyzeTrends(map[addr.Addr]telemetry.HistoryDump{a: *o.History}, objectives)
		RenderTrendReport(w, r)
	}
	if o.Metrics != nil {
		stats := FlattenSnapshot(*o.Metrics)
		names := make([]string, 0, len(stats))
		for name := range stats {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "node %v telemetry (%d series)\n", a, len(names))
		for _, name := range names {
			fmt.Fprintf(w, "  %-56s %d\n", name, stats[name])
		}
	}
}

func addrList(addrs []addr.Addr) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = fmt.Sprintf("%d", int(a))
	}
	s := strings.Join(parts, ",")
	if len(s) > 24 {
		s = s[:21] + "..."
	}
	return s
}

func liveSum(probes []health.LevelProbe) (n int64) {
	for _, lp := range probes {
		n += lp.Live
	}
	return n
}

func deadSum(probes []health.LevelProbe) (n int64) {
	for _, lp := range probes {
		n += lp.Dead
	}
	return n
}
