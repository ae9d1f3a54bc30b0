package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestConvergenceCurves(t *testing.T) {
	curves := Convergence(300, 5, []int{0, 2}, 50, 200000, 11)
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	for _, c := range curves {
		pts := c.Curve.Points
		if len(pts) < 3 {
			t.Fatalf("recmax=%d: only %d samples", c.RecMax, len(pts))
		}
		// Monotone non-decreasing depth, bounded by maxl.
		prev := 0.0
		for _, p := range pts {
			if p.Y < prev-1e-9 || p.Y > 5+1e-9 {
				t.Fatalf("recmax=%d: bad sample %+v", c.RecMax, p)
			}
			prev = p.Y
		}
		if final := pts[len(pts)-1].Y; final < 0.99*5 {
			t.Errorf("recmax=%d did not converge: %v", c.RecMax, final)
		}
	}
	// Recursion converges in fewer exchanges: its final x is smaller.
	x0 := curves[0].Curve.Points[len(curves[0].Curve.Points)-1].X
	x2 := curves[1].Curve.Points[len(curves[1].Curve.Points)-1].X
	if x2 >= x0 {
		t.Errorf("recmax=2 needed %v exchanges, recmax=0 %v", x2, x0)
	}
}

func TestConvergenceRendering(t *testing.T) {
	curves := Convergence(100, 3, []int{0, 2}, 20, 50000, 12)
	var buf bytes.Buffer
	RenderConvergence(&buf, curves)
	if !strings.Contains(buf.String(), "recmax=0") || !strings.Contains(buf.String(), "recmax=2") {
		t.Errorf("render missing headers:\n%s", buf.String())
	}
}
