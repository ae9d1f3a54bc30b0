package repair

import (
	"reflect"
	"testing"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

func TestValidRef(t *testing.T) {
	self := bitpath.MustParse("0101")
	cases := []struct {
		level  int
		remote string
		want   bool
	}{
		{1, "1", true},      // differs at bit 1
		{1, "1110", true},   // longer is fine
		{1, "0", false},     // same side
		{2, "00", true},     // shares prefix(1)="0", differs at bit 2
		{2, "0011", true},   //
		{2, "01", false},    // same side at bit 2
		{2, "10", false},    // wrong prefix
		{3, "011", true},    //
		{3, "010", false},   // same side at bit 3
		{3, "01", false},    // too short to decide bit 3
		{4, "0100", true},   //
		{4, "0101", false},  // identical path
		{4, "1100", false},  // wrong prefix
		{0, "1", false},     // level out of range
		{5, "01011", false}, // level beyond self's path
		{2, "", false},      // empty remote
		{1, "", false},      //
	}
	for _, c := range cases {
		got := ValidRef(self, c.level, bitpath.MustParse(c.remote))
		if got != c.want {
			t.Errorf("ValidRef(%v, %d, %q) = %v, want %v", self, c.level, c.remote, got, c.want)
		}
	}
}

func view(a int, path string, hash uint64, reachable bool) BuddyView {
	return BuddyView{Addr: addr.Addr(a), Path: bitpath.MustParse(path), IndexHash: hash, Reachable: reachable}
}

func TestMajorityHash(t *testing.T) {
	// Two buddies agree on 0xAA, self says 0xBB: majority 0xAA.
	group := []BuddyView{
		view(1, "0", 0xAA, true),
		view(2, "0", 0xAA, true),
	}
	h, ok := MajorityHash(0xBB, group)
	if !ok || h != 0xAA {
		t.Fatalf("MajorityHash = (%#x, %v), want (0xAA, true)", h, ok)
	}

	// 1-vs-1: no strict majority.
	if h, ok = MajorityHash(0xBB, group[:1]); ok {
		t.Fatalf("tied MajorityHash = (%#x, %v), want no majority", h, ok)
	}

	// Unreachable members don't vote.
	off := []BuddyView{view(1, "0", 0xAA, false), view(2, "0", 0xAA, false)}
	h, ok = MajorityHash(0xBB, off)
	if !ok {
		t.Fatalf("lone-voter MajorityHash not ok")
	}
	if h != 0xBB {
		t.Fatalf("lone-voter MajorityHash = %#x, want self hash 0xBB", h)
	}
}

func TestTallies(t *testing.T) {
	got := Tallies(map[string]int64{"b": 2, "a": 5, "zero": 0, "c": 1})
	want := []Tally{{"a", 5}, {"b", 2}, {"c", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tallies = %v, want %v", got, want)
	}
	if out := Tallies(nil); len(out) != 0 {
		t.Fatalf("Tallies(nil) = %v, want empty", out)
	}
}

func TestStatusTotalsAndState(t *testing.T) {
	s := Status{
		Enabled: true,
		Faults:  []Tally{{FaultWrongSide, 3}, {FaultDeadRef, 2}},
		Heals:   []Tally{{ActionEvictRef, 5}},
	}
	if s.TotalFaults() != 5 || s.TotalHeals() != 5 {
		t.Fatalf("totals = (%d, %d), want (5, 5)", s.TotalFaults(), s.TotalHeals())
	}

	cases := []struct {
		enabled                 bool
		lastHeals, lastUnhealed int64
		want                    string
	}{
		{false, 0, 0, ""},
		{false, 4, 2, ""},
		{true, 0, 0, "healthy"},
		{true, 7, 0, "healthy"},
		{true, 3, 2, "repairing"},
		{true, 0, 2, "stuck"},
	}
	for _, c := range cases {
		if got := State(c.enabled, c.lastHeals, c.lastUnhealed); got != c.want {
			t.Errorf("State(%v, %d, %d) = %q, want %q", c.enabled, c.lastHeals, c.lastUnhealed, got, c.want)
		}
	}
}

func TestPluralityPath(t *testing.T) {
	cases := []struct {
		name  string
		self  bitpath.Path
		views []BuddyView
		want  bitpath.Path
		ok    bool
	}{
		{"compound corruption outvoted", "0010", []BuddyView{
			view(1, "0000", 0, true), view(2, "0000", 0, true), view(9, "1011", 0, true),
		}, "0000", true},
		{"single liar cannot win", "0000", []BuddyView{
			view(9, "1011", 0, true),
		}, "", false},
		{"group confirms self", "0", []BuddyView{
			view(1, "0", 0, true), view(2, "0", 0, true),
		}, "0", true},
		{"pair confirms self", "0", []BuddyView{
			view(1, "0", 0, true),
		}, "0", true},
		{"even split stays put", "01", []BuddyView{
			view(1, "01", 0, true), view(2, "00", 0, true), view(3, "00", 0, true),
		}, "", false},
		{"lone peer unconfirmed", "1", nil, "", false},
		{"unreachable views do not vote", "0", []BuddyView{
			view(1, "1", 0, false), view(2, "1", 0, false),
		}, "", false},
	}
	for _, tc := range cases {
		got, ok := PluralityPath(tc.self, tc.views)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: PluralityPath = (%q, %t), want (%q, %t)", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}
