package experiments

import (
	"fmt"
	"io"
	"time"

	"pgrid/internal/core"
	"pgrid/internal/sim"
)

// ScaleRow measures construction at one community size — the "scale
// gracefully in the total number of nodes" claim pushed past the paper's
// 20 000-peer maximum. Depth grows with log2(N) to keep ≈ 16 replicas per
// leaf, so per Table 1 (e linear in N at fixed depth) and Table 2 (per-
// level growth factor ≈ 1.3–1.6 with recursion), e/N is expected to grow
// with depth but stay practical; the pass criterion is convergence at
// every size.
type ScaleRow struct {
	N         int
	MaxL      int
	Exchanges int64
	EPerN     float64
	Elapsed   time.Duration
	Converged bool
}

// Scale sweeps community sizes with the concurrent engine. Unlike the
// Section 5.1 tables this sweep stays sequential: each cell is itself a
// BuildConcurrent run that already saturates every core, and the largest
// grids are memory-heavy enough that overlapping them would only thrash.
func Scale(sizes []int, refmax int, seed int64) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, n := range sizes {
		depth := 1
		for (1 << uint(depth+1)) <= n/16 {
			depth++
		}
		res, err := sim.BuildConcurrent(sim.Options{
			N:      n,
			Config: core.Config{MaxL: depth, RefMax: refmax, RecMax: 2, RecFanout: 2},
			Seed:   seed,
		})
		if err != nil {
			return nil, fmt.Errorf("scale(N=%d): %w", n, err)
		}
		rows = append(rows, ScaleRow{
			N: n, MaxL: depth,
			Exchanges: res.Exchanges,
			EPerN:     float64(res.Exchanges) / float64(n),
			Elapsed:   res.Elapsed,
			Converged: res.Converged,
		})
	}
	return rows, nil
}

// RenderScale prints the sweep.
func RenderScale(w io.Writer, rows []ScaleRow) {
	fmt.Fprintln(w, "Scalability — construction cost vs community size (depth = log2(N/16))")
	fmt.Fprintf(w, "%8s %6s %12s %8s %12s %6s\n", "N", "maxl", "exchanges", "e/N", "build time", "conv")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %6d %12d %8.1f %12v %6t\n",
			r.N, r.MaxL, r.Exchanges, r.EPerN, r.Elapsed.Round(time.Millisecond), r.Converged)
	}
	fmt.Fprintln(w)
}
