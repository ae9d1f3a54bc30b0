package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"pgrid/internal/core"
	"pgrid/internal/directory"
	"pgrid/internal/stats"
)

// ConvergenceCurve records how the average path length grows with the
// number of exchanges — the dynamics underlying the Section 5.1 cost
// tables. The paper reports only endpoints; the curve makes the recursion
// ablation visible along the whole trajectory.
type ConvergenceCurve struct {
	RecMax int
	// Curve maps exchanges (x) to average path length (y).
	Curve stats.Curve
}

// Convergence runs construction for each recmax value, sampling the
// average path length every `sampleEvery` meetings until the target depth
// or maxMeetings.
func Convergence(n, maxl int, recmaxes []int, sampleEvery, maxMeetings int, seed int64) []ConvergenceCurve {
	out := make([]ConvergenceCurve, len(recmaxes))
	runCells(len(recmaxes), func(i int) error {
		recmax := recmaxes[i]
		rng := rand.New(rand.NewSource(seed))
		cfg := core.Config{MaxL: maxl, RefMax: 1, RecMax: recmax, RecFanout: 2}
		d := directory.New(n)
		var m core.Metrics
		sc := core.NewExchangeScratch(cfg, n)
		cc := ConvergenceCurve{RecMax: recmax}
		target := 0.99 * float64(maxl)
		for meetings := 0; meetings < maxMeetings; meetings++ {
			a1, a2 := d.RandomPair(rng)
			core.Exchange(d, cfg, &m, sc, a1, a2, rng)
			if meetings%sampleEvery == 0 {
				avg := d.AvgPathLen()
				cc.Curve.Add(float64(m.Exchanges.Load()), avg)
				if avg >= target {
					break
				}
			}
		}
		out[i] = cc
		return nil
	})
	return out
}

// RenderConvergence prints the curves on a shared exchange grid.
func RenderConvergence(w io.Writer, curves []ConvergenceCurve) {
	fmt.Fprintln(w, "Convergence — average path length vs exchanges")
	fmt.Fprintf(w, "%12s", "exchanges")
	maxX := 0.0
	for _, c := range curves {
		fmt.Fprintf(w, " %12s", fmt.Sprintf("recmax=%d", c.RecMax))
		if pts := c.Curve.Points; len(pts) > 0 && pts[len(pts)-1].X > maxX {
			maxX = pts[len(pts)-1].X
		}
	}
	fmt.Fprintln(w)
	for x := maxX / 20; x <= maxX; x += maxX / 20 {
		fmt.Fprintf(w, "%12.0f", x)
		for _, c := range curves {
			fmt.Fprintf(w, " %12.3f", c.Curve.At(x))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// ConvergenceCSV writes the curves, one column per recmax.
func ConvergenceCSV(w io.Writer, curves []ConvergenceCurve) error {
	header := []string{"exchanges"}
	maxX := 0.0
	for _, c := range curves {
		header = append(header, fmt.Sprintf("recmax_%d", c.RecMax))
		if pts := c.Curve.Points; len(pts) > 0 && pts[len(pts)-1].X > maxX {
			maxX = pts[len(pts)-1].X
		}
	}
	var rows [][]string
	for x := maxX / 100; x <= maxX; x += maxX / 100 {
		row := []string{f(x)}
		for _, c := range curves {
			row = append(row, f(c.Curve.At(x)))
		}
		rows = append(rows, row)
	}
	return writeCSV(w, header, rows)
}
