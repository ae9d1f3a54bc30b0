package experiments

import (
	"fmt"
	"io"

	"pgrid/internal/core"
	"pgrid/internal/sim"
	"pgrid/internal/workload"
)

// ChurnBuildRow measures construction robustness at one availability
// level: how many exchanges (and meetings, which include missed ones) it
// takes to bring the whole community to 90 % of maximal depth while peers
// come and go in sessions.
type ChurnBuildRow struct {
	OnlineFraction float64
	Exchanges      int64
	Meetings       int64
	EPerN          float64
	Converged      bool
	FinalAvgDepth  float64
}

// ChurnBuild sweeps stationary online fractions. The paper's construction
// experiments assume everyone online (fraction 1.0, the control row);
// lower availability stretches the process — offline peers miss meetings
// and resume when they return — but must not break it.
func ChurnBuild(n, maxl int, fractions []float64, seed int64) ([]ChurnBuildRow, error) {
	rows := make([]ChurnBuildRow, len(fractions))
	err := runCells(len(fractions), func(i int) error {
		frac := fractions[i]
		opts := sim.Options{
			N:           n,
			Config:      core.Config{MaxL: maxl, RefMax: 3, RecMax: 2, RecFanout: 2},
			Threshold:   0.90,
			Seed:        seed,
			MaxMeetings: 3000 * int64(n),
		}
		if frac < 1 {
			c := workload.ChurnForOnlineFraction(frac, 50)
			opts.Churn = &c
			opts.ChurnEvery = int64(n) / 4
		}
		res, err := sim.Build(opts)
		if err != nil {
			return fmt.Errorf("churnbuild(%v): %w", frac, err)
		}
		rows[i] = ChurnBuildRow{
			OnlineFraction: frac,
			Exchanges:      res.Exchanges,
			Meetings:       res.Meetings,
			EPerN:          float64(res.Exchanges) / float64(n),
			Converged:      res.Converged,
			FinalAvgDepth:  res.AvgPathLen,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderChurnBuild prints the availability sweep.
func RenderChurnBuild(w io.Writer, rows []ChurnBuildRow) {
	fmt.Fprintln(w, "Construction under churn — cost to reach 90% depth vs availability")
	fmt.Fprintf(w, "%8s %12s %12s %8s %10s %6s\n", "online", "exchanges", "meetings", "e/N", "avg depth", "conv")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f %12d %12d %8.1f %10.2f %6t\n",
			r.OnlineFraction, r.Exchanges, r.Meetings, r.EPerN, r.FinalAvgDepth, r.Converged)
	}
	fmt.Fprintln(w)
}
