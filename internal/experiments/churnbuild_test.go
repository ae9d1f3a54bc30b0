package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestChurnBuildSweep(t *testing.T) {
	rows, err := ChurnBuild(150, 4, []float64{1.0, 0.5}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	full, half := rows[0], rows[1]
	if !full.Converged || !half.Converged {
		t.Fatalf("did not converge: %+v / %+v", full, half)
	}
	// Churn stretches wall-clock (meetings) but the exchange work stays
	// within the same order of magnitude: offline peers miss meetings,
	// they don't destroy progress.
	if half.Meetings <= full.Meetings {
		t.Errorf("churn did not cost meetings: %d vs %d", half.Meetings, full.Meetings)
	}
	if half.EPerN > 5*full.EPerN {
		t.Errorf("churn blew up exchange work: %.1f vs %.1f", half.EPerN, full.EPerN)
	}
	if half.FinalAvgDepth < 0.9*4 {
		t.Errorf("final depth %v", half.FinalAvgDepth)
	}
}

func TestScaleSweep(t *testing.T) {
	rows, err := Scale([]int{512, 2048}, 3, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Converged {
			t.Errorf("N=%d did not converge: %+v", r.N, r)
		}
	}
	// Depth scales with log2(N/16): 5 then 7.
	if rows[0].MaxL != 5 || rows[1].MaxL != 7 {
		t.Errorf("depths = %d, %d", rows[0].MaxL, rows[1].MaxL)
	}
	// e/N grows with depth (Table 2), but within the recursive regime's
	// damped factor — not the doubling of the recursion-free regime.
	if g := rows[1].EPerN / rows[0].EPerN; g < 1 || g > 4 {
		t.Errorf("e/N growth over 2 levels = %.2f", g)
	}
	var buf bytes.Buffer
	RenderScale(&buf, rows)
	if !strings.Contains(buf.String(), "Scalability") {
		t.Error("render missing header")
	}
}

func TestChurnBuildRendering(t *testing.T) {
	rows := []ChurnBuildRow{{OnlineFraction: 0.5, Exchanges: 100, Meetings: 200, EPerN: 2, FinalAvgDepth: 3.7, Converged: true}}
	var buf bytes.Buffer
	RenderChurnBuild(&buf, rows)
	if !strings.Contains(buf.String(), "availability") {
		t.Errorf("render = %q", buf.String())
	}
}
