package experiments

import (
	"fmt"
	"io"
)

// RenderConstruction prints construction rows in the paper's table layout.
func RenderConstruction(w io.Writer, title string, rows []ConstructionRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%6s %6s %7s %7s %8s %10s %9s %5s\n",
		"N", "maxl", "refmax", "recmax", "fanout", "e", "e/N", "conv")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %6d %7d %7d %8d %10d %9.2f %5t\n",
			r.N, r.MaxL, r.RefMax, r.RecMax, r.RecFanout, r.Exchanges, r.EPerN, r.Converged)
	}
	fmt.Fprintln(w)
}

// RenderTable2 prints the maxl sweep including growth ratios.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table 2 — construction cost vs maximal path length (N=500)")
	fmt.Fprintf(w, "%7s %6s %10s %9s %8s\n", "recmax", "maxl", "e_maxl", "e/N", "ratio")
	for _, r := range rows {
		ratio := "     -"
		if r.Ratio > 0 {
			ratio = fmt.Sprintf("%6.3f", r.Ratio)
		}
		fmt.Fprintf(w, "%7d %6d %10d %9.2f %8s\n", r.RecMax, r.MaxL, r.Exchanges, r.EPerN, ratio)
	}
	fmt.Fprintln(w)
}

// RenderFig4 prints the replica-distribution histogram.
func RenderFig4(w io.Writer, r Fig4Result) {
	fmt.Fprintf(w, "Fig. 4 — replica distribution (N=%d, avg depth %.2f, e=%d, e/N=%.1f)\n",
		r.Dir.N(), r.AvgPathLen, r.Exchanges, r.EPerN)
	fmt.Fprintf(w, "mean replicas per peer: %.2f (paper: 19.46 on a fully converged depth-10 grid)\n",
		r.MeanReplicas)
	fmt.Fprint(w, r.Histogram.Render(50))
	fmt.Fprintln(w)
}

// RenderSearchReliability prints the Section 5.2 search experiment.
func RenderSearchReliability(w io.Writer, r SearchReliabilityResult) {
	fmt.Fprintf(w, "Search reliability — %d searches: success %.4f (paper 0.9997, eq.3 lower bound %.4f), avg messages %.3f (paper 5.558)\n\n",
		r.Queries, r.SuccessRate, r.Analytic, r.AvgMessages)
}

// RenderFig5 prints the find-all-replicas curves as aligned columns.
func RenderFig5(w io.Writer, curves []Fig5Curve) {
	fmt.Fprintln(w, "Fig. 5 — fraction of replicas found vs messages")
	fmt.Fprintf(w, "%10s", "messages")
	for _, c := range curves {
		fmt.Fprintf(w, " %22s", c.Strategy)
	}
	fmt.Fprintln(w)
	if len(curves) == 0 {
		return
	}
	for i := range curves[0].Curve.Points {
		fmt.Fprintf(w, "%10.0f", curves[0].Curve.Points[i].X)
		for _, c := range curves {
			fmt.Fprintf(w, " %22.3f", c.Curve.Points[i].Y)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// RenderTable6 prints the update/query tradeoff table in the paper layout.
func RenderTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6 — update/query tradeoff (breadth-first updates, 30% online)")
	fmt.Fprintf(w, "%-22s %10s %10s %11s %10s %14s\n",
		"read protocol", "recbreadth", "repetition", "successrate", "query cost", "insertion cost")
	for _, r := range rows {
		proto := "non-repetitive"
		if r.Repetitive {
			proto = "repetitive (majority)"
		}
		fmt.Fprintf(w, "%-22s %10d %10d %11.3f %10.1f %14.0f\n",
			proto, r.RecBreadth, r.Repetition, r.SuccessRate, r.QueryCost, r.InsertionCost)
	}
	fmt.Fprintln(w)
}

// RenderSec6 prints the architecture comparison.
func RenderSec6(w io.Writer, rows []Sec6Row) {
	fmt.Fprintln(w, "Section 6 — P-Grid vs central server vs Gnutella-style flooding")
	fmt.Fprintf(w, "%6s %6s | %12s %10s %8s | %12s %10s | %12s %8s\n",
		"N", "D", "pgrid-store", "pgrid-msgs", "pgrid-ok",
		"central-store", "central-load", "flood-msgs", "flood-ok")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %6d | %12.1f %10.2f %8.2f | %12d %12d | %12.1f %8.2f\n",
			r.N, r.D, r.PGridStoragePerPeer, r.PGridMsgsPerQuery, r.PGridSuccess,
			r.CentralStorage, r.CentralMaxLoad, r.FloodMsgsPerQuery, r.FloodSuccess)
	}
	fmt.Fprintln(w)
}

// RenderEq3 prints the model-vs-simulation validation.
func RenderEq3(w io.Writer, rows []Eq3Row) {
	fmt.Fprintln(w, "Eq. 3 — analytic success probability vs measured (ideal grids)")
	fmt.Fprintf(w, "%8s %7s %6s %10s %10s\n", "p", "refmax", "depth", "analytic", "measured")
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f %7d %6d %10.4f %10.4f\n",
			r.OnlineProb, r.RefMax, r.Depth, r.Analytic, r.Measured)
	}
	fmt.Fprintln(w)
}
