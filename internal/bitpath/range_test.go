package bitpath

import (
	"testing"
	"testing/quick"
)

func TestCoverRangeExamples(t *testing.T) {
	cases := []struct {
		lo, hi string
		want   []string
	}{
		{"000", "111", []string{""}},                       // whole space
		{"000", "011", []string{"0"}},                      // half
		{"010", "101", []string{"01", "10"}},               // middle
		{"001", "110", []string{"001", "01", "10", "110"}}, // ragged
		{"101", "101", []string{"101"}},                    // single key
		{"011", "100", []string{"011", "100"}},             // straddles the root
	}
	for _, c := range cases {
		got, err := CoverRange(MustParse(c.lo), MustParse(c.hi))
		if err != nil {
			t.Fatalf("CoverRange(%s,%s): %v", c.lo, c.hi, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("CoverRange(%s,%s) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for i := range got {
			if string(got[i]) != c.want[i] {
				t.Errorf("CoverRange(%s,%s)[%d] = %q, want %q", c.lo, c.hi, i, got[i], c.want[i])
			}
		}
	}
}

func TestCoverRangeErrors(t *testing.T) {
	if _, err := CoverRange(MustParse("01"), MustParse("011")); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := CoverRange(MustParse("10"), MustParse("01")); err == nil {
		t.Error("inverted range accepted")
	}
	if got, err := CoverRange(Empty, Empty); err != nil || len(got) != 1 || got[0] != Empty {
		t.Errorf("empty-length range = %v, %v", got, err)
	}
}

func TestCoverRangeExactCoverBruteForce(t *testing.T) {
	// For every range over 6-bit keys (2016 ranges), the decomposition
	// covers exactly the keys in the range, with non-overlapping prefixes.
	n := 6
	keys := All(n)
	for li := 0; li < len(keys); li++ {
		for hi := li; hi < len(keys); hi++ {
			lo, hiP := keys[li], keys[hi]
			cover, err := CoverRange(lo, hiP)
			if err != nil {
				t.Fatalf("CoverRange(%s,%s): %v", lo, hiP, err)
			}
			for ki, k := range keys {
				covered := 0
				for _, p := range cover {
					if k.HasPrefix(p) {
						covered++
					}
				}
				inRange := ki >= li && ki <= hi
				if inRange && covered != 1 {
					t.Fatalf("range [%s,%s]: key %s covered %d times", lo, hiP, k, covered)
				}
				if !inRange && covered != 0 {
					t.Fatalf("range [%s,%s]: key %s outside but covered", lo, hiP, k)
				}
			}
		}
	}
}

func TestCoverRangeMinimalSize(t *testing.T) {
	// The canonical decomposition of an ℓ-bit range has at most 2ℓ-2
	// prefixes (and we allow 2ℓ for slack).
	f := func(a, b uint16) bool {
		n := 16
		l, h := uint64(a), uint64(b)
		if l > h {
			l, h = h, l
		}
		cover, err := CoverRange(FromUint(l, n), FromUint(h, n))
		return err == nil && len(cover) <= 2*n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCoverRangeMembershipAgrees(t *testing.T) {
	f := func(a, b, k uint16) bool {
		n := 16
		l, h := uint64(a), uint64(b)
		if l > h {
			l, h = h, l
		}
		lo, hi, key := FromUint(l, n), FromUint(h, n), FromUint(uint64(k), n)
		cover, err := CoverRange(lo, hi)
		if err != nil {
			return false
		}
		covered := false
		for _, p := range cover {
			if key.HasPrefix(p) {
				covered = true
				break
			}
		}
		return covered == RangeContains(lo, hi, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRangeContains(t *testing.T) {
	lo, hi := MustParse("0010"), MustParse("1001")
	if !RangeContains(lo, hi, MustParse("0101")) {
		t.Error("inner key rejected")
	}
	if !RangeContains(lo, hi, lo) || !RangeContains(lo, hi, hi) {
		t.Error("bounds are inclusive")
	}
	if RangeContains(lo, hi, MustParse("0001")) || RangeContains(lo, hi, MustParse("1010")) {
		t.Error("outer key accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("mixed lengths must panic")
		}
	}()
	RangeContains(lo, hi, MustParse("01"))
}
