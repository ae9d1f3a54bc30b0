package main

import (
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/analysis"
	"pgrid/internal/bitpath"
	"pgrid/internal/core"
	"pgrid/internal/node"
	"pgrid/internal/slo"
)

// TestClusterExitCode: a one-shot cluster run fails on each broken
// community invariant alone, and only on those.
func TestClusterExitCode(t *testing.T) {
	clean := func() clusterFrame {
		return clusterFrame{Reached: 3, Report: analysis.ClusterReport{Peers: 3,
			Grid: analysis.GridReport{Repair: analysis.RepairSummary{State: "healthy"}}}}
	}
	for _, tc := range []struct {
		name   string
		mutate func(*clusterFrame)
		want   int
	}{
		{"clean", func(*clusterFrame) {}, 0},
		{"repairing", func(f *clusterFrame) { f.Report.Grid.Repair.State = "repairing" }, 0},
		{"repair off", func(f *clusterFrame) { f.Report.Grid.Repair.State = "" }, 0},
		{"no peer answered", func(f *clusterFrame) { f.Report.Peers = 0 }, 1},
		{"unreachable peer", func(f *clusterFrame) { f.Report.Unreachable = []addr.Addr{2} }, 1},
		{"unlisted peer", func(f *clusterFrame) { f.Unlisted = []addr.Addr{2} }, 1},
		{"violation", func(f *clusterFrame) { f.Violations = []node.Violation{{From: 1, Level: 1, To: 2}} }, 1},
		{"latency objective breached", func(f *clusterFrame) { f.Report.Trends.SLO = []slo.Status{{Breached: true}} }, 1},
		{"availability breached", func(f *clusterFrame) { f.Report.AvailabilityBreached = true }, 1},
		{"repair stuck", func(f *clusterFrame) { f.Report.Grid.Repair.State = "stuck" }, 1},
	} {
		f := clean()
		tc.mutate(&f)
		if got := f.exitCode(); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestClusterVerdict walks a live 3-peer community (paths 0, 10, 11 with
// the Section 2 references between them) the way `pgridctl cluster` does:
// clean it passes; a corrupted level-1 reference, a -peers entry nobody
// references or a dead peer each fail it.
func TestClusterVerdict(t *testing.T) {
	c := node.NewCluster(3, core.Config{MaxL: 4, RefMax: 3, RecMax: 2, RecFanout: 2}, 7)
	for i, s := range []struct {
		path string
		refs []addr.Addr
	}{{"0", []addr.Addr{1}}, {"10", []addr.Addr{0, 2}}, {"11", []addr.Addr{0, 1}}} {
		path := bitpath.MustParse(s.path)
		for level := 1; level <= path.Len(); level++ {
			if !c.Nodes[i].Peer().ExtendFrom(path.Prefix(level-1), path.Bit(level), addr.NewSet(s.refs[level-1])) {
				t.Fatalf("fixture build failed at node %d level %d", i, level)
			}
		}
	}
	objectives, err := slo.ParseList("query:p99:5ms")
	if err != nil {
		t.Fatal(err)
	}
	client := node.NewClient(c.Transport, 1)
	all := []addr.Addr{0, 1, 2}
	if f := collectCluster(client, 0, all, objectives); f.exitCode() != 0 || f.Reached != 3 {
		t.Fatalf("clean community: exit %d, frame %+v", f.exitCode(), f)
	}

	if f := collectCluster(client, 0, append(all, 3), objectives); f.exitCode() != 1 || len(f.Unlisted) != 1 || f.Unlisted[0] != 3 {
		t.Errorf("a -peers entry nobody references: exit %d, unlisted %v", f.exitCode(), f.Unlisted)
	}

	// Node 1 (path 10) must reference the 0 side at level 1; point it at 2
	// (path 11) instead.
	c.Nodes[1].Peer().SetRefsAt(1, addr.NewSet(2))
	f := collectCluster(client, 0, all, objectives)
	want := node.Violation{From: 1, FromPath: "10", Level: 1, To: 2, ToPath: "11"}
	if f.exitCode() != 1 || len(f.Violations) != 1 || f.Violations[0] != want {
		t.Errorf("corrupted level-1 reference: exit %d, violations %v", f.exitCode(), f.Violations)
	}
	c.Nodes[1].Peer().SetRefsAt(1, addr.NewSet(0))

	c.Nodes[2].SetOnline(false)
	if f := collectCluster(client, 0, all, objectives); f.exitCode() != 1 || len(f.Report.Unreachable) != 1 {
		t.Errorf("dead peer: exit %d, unreachable %v", f.exitCode(), f.Report.Unreachable)
	}
}
