package core

import (
	"strings"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/trie"
)

func TestQueryTracedMatchesQuerySemantics(t *testing.T) {
	rng := newRng(1)
	d := trie.BuildIdeal(256, 4, 3, rng)
	for i := 0; i < 200; i++ {
		key := bitpath.Random(rng, 4)
		start := d.RandomPeer(rng)
		tr := QueryTraced(d, start, key, rng)
		if !tr.Found {
			t.Fatalf("traced query %s failed on ideal grid", key)
		}
		// First hop is the entry peer; the last hop matched and is the
		// responsible peer.
		if tr.Spans[0].Peer != start.Addr() {
			t.Fatalf("first hop %v, start %v", tr.Spans[0].Peer, start.Addr())
		}
		last := tr.Spans[len(tr.Spans)-1]
		if !last.Matched {
			t.Fatalf("last hop %+v did not match", last)
		}
		if !bitpath.Comparable(d.Peer(last.Peer).Path(), key) {
			t.Fatalf("result peer not covering")
		}
		// Message count equals hops beyond the entry when nothing
		// backtracked.
		backtracks := 0
		for _, h := range tr.Spans {
			if h.Backtracked {
				backtracks++
			}
		}
		if backtracks == 0 && tr.Messages != len(tr.Spans)-1 {
			t.Fatalf("messages %d, hops %d", tr.Messages, len(tr.Spans))
		}
	}
}

func TestQueryTracedRecordsBacktracking(t *testing.T) {
	// Entry peer has two references at its first routing level: one leads
	// to a dead end (offline deeper target), the other succeeds. The trace
	// must mark the dead-end hop or the entry as backtracked and still
	// succeed.
	d := buildFig1(t)
	// 5 (11) queries 00: route 5 →(level 1) {1}. Give 5 a second level-1
	// ref to 0 and take 1's target 0... instead: make 1 a dead end by
	// cutting its level-2 refs to an offline peer only.
	d.Peer(5).SetRefsAt(1, addr.NewSet(0, 1))
	d.Peer(0).SetOnline(true)
	// Peer 1's level-2 refs point to 0; set 0 offline AND give 5 an
	// alternative: actually take 1's refs away so it dead-ends.
	d.Peer(1).SetRefsAt(2, addr.Set{})

	found, backtracked := false, false
	for i := 0; i < 20; i++ {
		tr := QueryTraced(d, d.Peer(5), bitpath.MustParse("00"), newRng(int64(i)))
		if !tr.Found {
			t.Fatalf("query failed: %s", tr)
		}
		found = true
		for _, h := range tr.Spans {
			if h.Backtracked {
				backtracked = true
			}
		}
	}
	if !found {
		t.Fatal("no traced query succeeded")
	}
	if !backtracked {
		t.Error("20 random traces never visited the dead end (suspicious)")
	}
}

func TestTraceString(t *testing.T) {
	rng := newRng(2)
	d := trie.BuildIdeal(16, 2, 2, rng)
	tr := QueryTraced(d, d.Peer(0), bitpath.MustParse("11"), rng)
	s := tr.String()
	if !strings.Contains(s, "key 11") {
		t.Errorf("trace string = %q", s)
	}
	if tr.Found && !strings.Contains(s, "✓") {
		t.Errorf("success marker missing: %q", s)
	}
	// Failure rendering.
	d.SetAllOnline(false)
	d.Peer(0).SetOnline(true)
	tr = QueryTraced(d, d.Peer(0), bitpath.MustParse("11"), rng)
	if tr.Found {
		t.Skip("peer 0 happened to cover the key")
	}
	if !strings.Contains(tr.String(), "✗") {
		t.Errorf("failure marker missing: %q", tr.String())
	}
}
