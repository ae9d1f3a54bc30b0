package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAntiEntropyConvergesTowardFresh(t *testing.T) {
	rows, err := AntiEntropy(200, 5, 15, 8, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	start, end := rows[0], rows[len(rows)-1]
	if start.Fresh >= 0.9 {
		t.Fatalf("weak update already at %.3f freshness: experiment not discriminating", start.Fresh)
	}
	if end.Fresh <= start.Fresh+0.1 {
		t.Errorf("gossip did not reconcile replicas: %.3f → %.3f", start.Fresh, end.Fresh)
	}
	if end.Fresh < 0.6 {
		t.Errorf("final freshness %.3f too low", end.Fresh)
	}
	// Monotone within sampling noise (freshness never decreases: versions
	// are monotone, anti-entropy only spreads the newer one).
	for k := 1; k < len(rows); k++ {
		if rows[k].Fresh < rows[k-1].Fresh-1e-9 {
			t.Errorf("freshness regressed at round %d: %.3f → %.3f",
				rows[k].Round, rows[k-1].Fresh, rows[k].Fresh)
		}
	}
}

func TestAntiEntropyRendering(t *testing.T) {
	rows := []AntiEntropyRow{{Round: 0, Fresh: 0.2}, {Round: 1, Fresh: 0.5, Exchanges: 100}}
	var buf bytes.Buffer
	RenderAntiEntropy(&buf, rows)
	if !strings.Contains(buf.String(), "Anti-entropy") {
		t.Error("render missing header")
	}
}
