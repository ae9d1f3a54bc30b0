package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/stats"
	"pgrid/internal/store"
	"pgrid/internal/trie"
	"pgrid/internal/workload"
)

// This file holds the experiments for the extensions the paper defers to
// future work (Section 6): skewed data distributions with data-aware
// splitting, reference maintenance under permanent churn, and incremental
// membership. None of these has a paper table to match; the benchmarks
// record the ablation (extension on vs off) so regressions are visible.

// SkewRow compares uniform vs data-aware splitting under one key
// distribution.
type SkewRow struct {
	Distribution string  // "uniform" or "zipf"
	DataAware    bool    // SplitMinItems gate active
	AvgDepth     float64 // mean path length after construction
	LoadGini     float64 // Gini of index entries per peer (0 = even)
	MaxLoadRatio float64 // max entries per peer / mean
	Success      float64 // search success for item keys, everyone online
}

// SkewParams configures the skew experiment.
type SkewParams struct {
	Peers    int
	Items    int
	MaxL     int
	MinItems int // SplitMinItems for the data-aware runs
	Meetings int
	Seed     int64
}

// DefaultSkewParams returns a laptop-scale configuration. MaxL is set well
// above log2(Peers) on purpose: with that much depth headroom, plain
// splitting overspecializes (the paper's Section 3 warning) while the
// data-aware gate stops where the data runs out.
func DefaultSkewParams() SkewParams {
	return SkewParams{Peers: 400, Items: 4000, MaxL: 12, MinItems: 10, Meetings: 120000, Seed: 1}
}

// Skew runs the 3×2 experiment: {uniform, hotspot, zipf} × {plain,
// data-aware}. Under region skew ("hotspot": most keys in one quarter of
// the space), plain splitting leaves hot-region peers with far more index
// entries than cold-region peers (high Gini); the data-aware gate subdivides
// the hot region further and keeps replicas in cold regions, flattening the
// load. Zipf keys add value skew — duplicates of single exact keys — which
// no access structure can split away; the row is included to show that
// limit honestly.
func Skew(p SkewParams) []SkewRow {
	var rows []SkewRow
	for _, dist := range []string{"uniform", "hotspot", "zipf"} {
		for _, aware := range []bool{false, true} {
			rows = append(rows, skewCell(p, dist, aware))
		}
	}
	return rows
}

func skewCell(p SkewParams, dist string, aware bool) SkewRow {
	rng := rand.New(rand.NewSource(p.Seed))
	var keys []bitpath.Path
	switch dist {
	case "zipf":
		keys = workload.ZipfKeys(rng, p.Items, p.MaxL+4, 1.2)
	case "hotspot":
		keys = workload.HotspotKeys(rng, p.Items, p.MaxL+4, "00", 0.85)
	default:
		keys = workload.UniformKeys(rng, p.Items, p.MaxL+4)
	}

	cfg := core.Config{MaxL: p.MaxL, RefMax: 3, RecMax: 2, RecFanout: 2}
	if aware {
		cfg.SplitMinItems = p.MinItems
	}
	d := directory.New(p.Peers)
	entries := make([]store.Entry, len(keys))
	for i, k := range keys {
		holder := d.RandomPeer(rng)
		entries[i] = store.Entry{Key: k, Name: fmt.Sprintf("item-%d", i), Holder: holder.Addr(), Version: 1}
		holder.Store().Apply(entries[i])
	}

	var m core.Metrics
	sc := core.NewExchangeScratch(cfg, p.Peers)
	for i := 0; i < p.Meetings; i++ {
		a1, a2 := d.RandomPair(rng)
		core.Exchange(d, cfg, &m, sc, a1, a2, rng)
	}

	// Re-publish every item through the protocol: construction-time
	// migration is best-effort (entries stranded by asymmetric splits stay
	// behind), so a real deployment publishes its catalog against the
	// settled structure. Loads and search success are measured after this,
	// as a user would see them.
	for _, e := range entries {
		core.Insert(d, e, cfg.RefMax, rng)
	}

	row := SkewRow{Distribution: dist, DataAware: aware, AvgDepth: d.AvgPathLen()}
	loads := make([]float64, 0, p.Peers)
	var sum, max float64
	for _, peer := range d.All() {
		l := float64(peer.Store().Len())
		loads = append(loads, l)
		sum += l
		if l > max {
			max = l
		}
	}
	row.LoadGini = stats.Gini(loads)
	if sum > 0 {
		row.MaxLoadRatio = max / (sum / float64(p.Peers))
	}

	succ := 0
	probes := 500
	for i := 0; i < probes; i++ {
		e := entries[rng.Intn(len(entries))]
		res := core.Query(d, d.RandomPeer(rng), e.Key, rng)
		if !res.Found {
			continue
		}
		if _, ok := d.Peer(res.Peer).Store().Get(e.Key, e.Name); ok {
			succ++
		}
	}
	row.Success = float64(succ) / float64(probes)
	return row
}

// RenderSkew prints the skew ablation.
func RenderSkew(wr io.Writer, rows []SkewRow) {
	fmt.Fprintln(wr, "Skew extension — uniform vs data-aware splitting")
	fmt.Fprintf(wr, "%-9s %-10s %9s %10s %9s %9s\n",
		"keys", "splitting", "avg depth", "load gini", "max/mean", "success")
	for _, r := range rows {
		mode := "plain"
		if r.DataAware {
			mode = "data-aware"
		}
		fmt.Fprintf(wr, "%-9s %-10s %9.2f %10.3f %9.1f %9.3f\n",
			r.Distribution, mode, r.AvgDepth, r.LoadGini, r.MaxLoadRatio, r.Success)
	}
	fmt.Fprintln(wr)
}

// MaintenanceRow is one epoch of the churn-repair experiment.
type MaintenanceRow struct {
	Epoch      int
	Maintained bool
	Alive      float64 // fraction of references pointing at online peers
	Fill       float64 // mean reference-set fill vs refmax
	Success    float64 // search success among surviving peers
}

// Maintenance measures reference decay and repair: each epoch, a fraction
// of peers departs permanently (replaced by blank newcomers); with
// maintenance on, every online peer then runs a repair round. Search
// success is measured over surviving (specialized) peers.
func Maintenance(peers, depth, refmax, epochs int, departFraction float64, maintain bool, seed int64) []MaintenanceRow {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.Config{MaxL: depth, RefMax: refmax, RecMax: 2, RecFanout: 2}
	d := trie.BuildIdeal(peers, depth, refmax, rng)

	var rows []MaintenanceRow
	for epoch := 1; epoch <= epochs; epoch++ {
		departs := int(departFraction * float64(peers))
		for i := 0; i < departs; i++ {
			d.Replace(addr.Addr(rng.Intn(peers)))
		}
		if maintain {
			core.RepairAll(d, refmax, rng)
		}
		h := core.MeasureRefHealth(d, cfg)
		row := MaintenanceRow{Epoch: epoch, Maintained: maintain, Alive: h.AliveFraction, Fill: h.Fill}

		succ, probes := 0, 300
		for i := 0; i < probes; i++ {
			key := bitpath.Random(rng, depth)
			start := d.RandomOnlinePeer(rng)
			for start.PathLen() == 0 { // skip blank newcomers as entry points
				start = d.RandomOnlinePeer(rng)
			}
			res := core.Query(d, start, key, rng)
			if res.Found && d.Peer(res.Peer).PathLen() > 0 {
				succ++
			}
		}
		row.Success = float64(succ) / float64(probes)
		rows = append(rows, row)
	}
	return rows
}

// RenderMaintenance prints the churn-repair ablation.
func RenderMaintenance(wr io.Writer, with, without []MaintenanceRow) {
	fmt.Fprintln(wr, "Maintenance extension — reference repair under permanent churn")
	fmt.Fprintf(wr, "%6s | %22s | %22s\n", "", "without maintenance", "with maintenance")
	fmt.Fprintf(wr, "%6s | %7s %6s %7s | %7s %6s %7s\n",
		"epoch", "alive", "fill", "success", "alive", "fill", "success")
	for i := range without {
		w, m := without[i], with[i]
		fmt.Fprintf(wr, "%6d | %7.3f %6.2f %7.3f | %7.3f %6.2f %7.3f\n",
			w.Epoch, w.Alive, w.Fill, w.Success, m.Alive, m.Fill, m.Success)
	}
	fmt.Fprintln(wr)
}

// JoinRow summarizes one batch of joins at a given community size.
type JoinRow struct {
	CommunityBefore int
	Joins           int
	MeanMeetings    float64
	MeanExchanges   float64
	Settled         float64 // fraction reaching full depth
}

// JoinGrowth measures incremental membership cost while a community
// doubles, in batches: per-join cost should stay flat (a join is O(depth)
// targeted meetings, independent of N).
func JoinGrowth(start, batches, batchSize, depth, refmax int, seed int64) []JoinRow {
	rng := rand.New(rand.NewSource(seed))
	cfg := core.Config{MaxL: depth, RefMax: refmax, RecMax: 2, RecFanout: 2}
	d := trie.BuildIdeal(start, depth, refmax, rng)
	var m core.Metrics

	var rows []JoinRow
	for b := 0; b < batches; b++ {
		before := d.N()
		results := core.Grow(d, cfg, &m, batchSize, 500, rng)
		row := JoinRow{CommunityBefore: before, Joins: len(results)}
		for _, r := range results {
			row.MeanMeetings += float64(r.Meetings)
			row.MeanExchanges += float64(r.Exchanges)
			if r.Settled {
				row.Settled++
			}
		}
		row.MeanMeetings /= float64(len(results))
		row.MeanExchanges /= float64(len(results))
		row.Settled /= float64(len(results))
		rows = append(rows, row)
	}
	return rows
}

// RenderJoin prints the incremental-growth measurement.
func RenderJoin(wr io.Writer, rows []JoinRow) {
	fmt.Fprintln(wr, "Join extension — incremental membership cost while the community grows")
	fmt.Fprintf(wr, "%10s %7s %14s %15s %9s\n", "N before", "joins", "meetings/join", "exchanges/join", "settled")
	for _, r := range rows {
		fmt.Fprintf(wr, "%10d %7d %14.1f %15.1f %9.2f\n",
			r.CommunityBefore, r.Joins, r.MeanMeetings, r.MeanExchanges, r.Settled)
	}
	fmt.Fprintln(wr)
}
