package bitpath

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"", true},
		{"0", true},
		{"1", true},
		{"0101101", true},
		{"2", false},
		{"01x", false},
		{"01 ", false},
		{"０１", false}, // full-width digits
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if c.ok && err != nil {
			t.Errorf("Parse(%q) unexpected error: %v", c.in, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Parse(%q) expected error, got %q", c.in, p)
		}
		if c.ok && string(p) != c.in {
			t.Errorf("Parse(%q) = %q", c.in, p)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on invalid input did not panic")
		}
	}()
	MustParse("01a")
}

func TestBitIndexing(t *testing.T) {
	p := MustParse("0110")
	want := []byte{0, 1, 1, 0}
	for i := 1; i <= 4; i++ {
		if got := p.Bit(i); got != want[i-1] {
			t.Errorf("Bit(%d) = %d, want %d", i, got, want[i-1])
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{0, 5, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			MustParse("0110").Bit(i)
		}()
	}
}

func TestAppendAndFlip(t *testing.T) {
	p := Empty
	p = p.Append(0)
	p = p.Append(1)
	if p != "01" {
		t.Fatalf("Append chain = %q, want 01", p)
	}
	if q := p.AppendFlip(0); q != "011" {
		t.Errorf("AppendFlip(0) = %q, want 011", q)
	}
	if q := p.AppendFlip(1); q != "010" {
		t.Errorf("AppendFlip(1) = %q, want 010", q)
	}
}

func TestSubMatchesPaperSemantics(t *testing.T) {
	// sub_path(p1...pn, l, k) := pl...pk, 1-based inclusive.
	p := MustParse("10110")
	if got := p.Sub(2, 4); got != "011" {
		t.Errorf("Sub(2,4) = %q, want 011", got)
	}
	if got := p.Sub(1, 5); got != p {
		t.Errorf("Sub(1,5) = %q, want %q", got, p)
	}
	if got := p.Sub(3, 2); got != Empty {
		t.Errorf("Sub(3,2) = %q, want empty", got)
	}
	if got := p.Sub(6, 5); got != Empty {
		t.Errorf("Sub(6,5) = %q, want empty", got)
	}
}

func TestCommonPrefix(t *testing.T) {
	cases := []struct{ a, b, want string }{
		{"", "", ""},
		{"0", "1", ""},
		{"01", "01", "01"},
		{"0110", "0101", "01"},
		{"0110", "01", "01"},
		{"111", "1101", "11"},
	}
	for _, c := range cases {
		got := CommonPrefix(MustParse(c.a), MustParse(c.b))
		if string(got) != c.want {
			t.Errorf("CommonPrefix(%q,%q) = %q, want %q", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got2 := CommonPrefix(MustParse(c.b), MustParse(c.a)); got2 != got {
			t.Errorf("CommonPrefix not symmetric for %q,%q", c.a, c.b)
		}
	}
}

func TestPrefixRelations(t *testing.T) {
	a := MustParse("0101")
	if !a.HasPrefix(MustParse("01")) {
		t.Error("HasPrefix failed on true prefix")
	}
	if a.HasPrefix(MustParse("011")) {
		t.Error("HasPrefix accepted non-prefix")
	}
	if !Comparable(a, MustParse("01")) || !Comparable(MustParse("01"), a) {
		t.Error("Comparable failed on prefix pair")
	}
	if Comparable(MustParse("00"), MustParse("01")) {
		t.Error("Comparable accepted diverging paths")
	}
	if !Comparable(a, a) {
		t.Error("Comparable failed on equal paths")
	}
	if !a.HasPrefix(Empty) {
		t.Error("empty path must be prefix of everything")
	}
}

func TestSiblingParent(t *testing.T) {
	if got := MustParse("010").Sibling(); got != "011" {
		t.Errorf("Sibling = %q, want 011", got)
	}
	if got := MustParse("011").Sibling(); got != "010" {
		t.Errorf("Sibling = %q, want 010", got)
	}
	if got := MustParse("011").Parent(); got != "01" {
		t.Errorf("Parent = %q, want 01", got)
	}
	for _, f := range []func(){func() { Empty.Sibling() }, func() { Empty.Parent() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on empty path")
				}
			}()
			f()
		}()
	}
}

func TestValAndInterval(t *testing.T) {
	cases := []struct {
		p   string
		val float64
	}{
		{"", 0},
		{"0", 0},
		{"1", 0.5},
		{"01", 0.25},
		{"11", 0.75},
		{"101", 0.625},
	}
	for _, c := range cases {
		p := MustParse(c.p)
		if got := p.Val(); math.Abs(got-c.val) > 1e-12 {
			t.Errorf("Val(%q) = %v, want %v", c.p, got, c.val)
		}
		lo, hi := p.Interval()
		if lo != p.Val() {
			t.Errorf("Interval(%q) lo = %v, want %v", c.p, lo, p.Val())
		}
		if want := p.Val() + p.Width(); math.Abs(hi-want) > 1e-12 {
			t.Errorf("Interval(%q) hi = %v, want %v", c.p, hi, want)
		}
	}
	if Empty.Width() != 1 {
		t.Errorf("Width(empty) = %v, want 1", Empty.Width())
	}
	if MustParse("000").Width() != 0.125 {
		t.Errorf("Width(000) = %v, want 0.125", MustParse("000").Width())
	}
}

func TestContains(t *testing.T) {
	p := MustParse("01")
	if !p.Contains(MustParse("0110")) {
		t.Error("responsible region must contain deeper keys under it")
	}
	if !p.Contains(p) {
		t.Error("region must contain its own key")
	}
	if p.Contains(MustParse("0")) {
		t.Error("region must not contain a strictly shorter key")
	}
	if p.Contains(MustParse("10")) {
		t.Error("region must not contain diverging key")
	}
}

func TestCompareMatchesValOrder(t *testing.T) {
	paths := All(4)
	sorted := append([]Path(nil), paths...)
	sort.Slice(sorted, func(i, j int) bool { return Compare(sorted[i], sorted[j]) < 0 })
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1].Val() > sorted[i].Val() {
			t.Fatalf("Compare order violates val order at %d: %q then %q", i, sorted[i-1], sorted[i])
		}
	}
	if Compare(MustParse("0"), MustParse("00")) != -1 {
		t.Error("shorter path must sort before its extension")
	}
	if Compare(MustParse("01"), MustParse("01")) != 0 {
		t.Error("equal paths must compare 0")
	}
}

func TestUintRoundTrip(t *testing.T) {
	for v := uint64(0); v < 64; v++ {
		p := FromUint(v, 6)
		if p.Len() != 6 {
			t.Fatalf("FromUint length = %d", p.Len())
		}
		if got := p.Uint(); got != v {
			t.Fatalf("Uint(FromUint(%d)) = %d", v, got)
		}
	}
	if FromUint(5, 0) != Empty {
		t.Error("FromUint(_, 0) must be empty")
	}
}

func TestAll(t *testing.T) {
	got := All(2)
	want := []Path{"00", "01", "10", "11"}
	if len(got) != len(want) {
		t.Fatalf("All(2) returned %d paths", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("All(2)[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRandomLengthAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen0, seen1 := false, false
	for i := 0; i < 100; i++ {
		p := Random(rng, 10)
		if p.Len() != 10 || !p.Valid() {
			t.Fatalf("Random produced invalid path %q", p)
		}
		if p[0] == '0' {
			seen0 = true
		} else {
			seen1 = true
		}
	}
	if !seen0 || !seen1 {
		t.Error("Random never varied its first bit over 100 draws")
	}
}

func TestStringRendersEmptyVisibly(t *testing.T) {
	if Empty.String() != "ε" {
		t.Errorf("empty path renders as %q", Empty.String())
	}
	if MustParse("010").String() != "010" {
		t.Errorf("path renders as %q", MustParse("010").String())
	}
}

// --- property-based tests -------------------------------------------------

// genPath adapts quick's raw uint64/int inputs into a valid Path.
func genPath(v uint64, n uint8) Path { return FromUint(v, int(n%21)) }

func TestPropCommonPrefixIsPrefixOfBoth(t *testing.T) {
	f := func(v1, v2 uint64, n1, n2 uint8) bool {
		a, b := genPath(v1, n1), genPath(v2, n2)
		c := CommonPrefix(a, b)
		return a.HasPrefix(c) && b.HasPrefix(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCommonPrefixIsMaximal(t *testing.T) {
	f := func(v1, v2 uint64, n1, n2 uint8) bool {
		a, b := genPath(v1, n1), genPath(v2, n2)
		c := CommonPrefix(a, b)
		// If both paths continue past the common prefix, the next bits differ.
		if len(c) < a.Len() && len(c) < b.Len() {
			return a.Bit(len(c)+1) != b.Bit(len(c)+1)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropValWithinUnitInterval(t *testing.T) {
	f := func(v uint64, n uint8) bool {
		p := genPath(v, n)
		lo, hi := p.Interval()
		return lo >= 0 && hi <= 1.0+1e-12 && lo < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSiblingIntervalsPartitionParent(t *testing.T) {
	f := func(v uint64, n uint8) bool {
		p := genPath(v, n%20+1) // non-empty
		s := p.Sibling()
		plo, phi := p.Interval()
		slo, shi := s.Interval()
		parentLo, parentHi := p.Parent().Interval()
		width := phi - plo + shi - slo
		lo := math.Min(plo, slo)
		hi := math.Max(phi, shi)
		return math.Abs(width-(parentHi-parentLo)) < 1e-12 &&
			math.Abs(lo-parentLo) < 1e-12 && math.Abs(hi-parentHi) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAppendExtendsPrefix(t *testing.T) {
	f := func(v uint64, n uint8, b bool) bool {
		p := genPath(v, n)
		var bit byte
		if b {
			bit = 1
		}
		q := p.Append(bit)
		return q.HasPrefix(p) && q.Len() == p.Len()+1 && q.Bit(q.Len()) == bit &&
			p.AppendFlip(bit).Bit(q.Len()) == 1-bit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCompareAntisymmetric(t *testing.T) {
	f := func(v1, v2 uint64, n1, n2 uint8) bool {
		a, b := genPath(v1, n1), genPath(v2, n2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropUintRoundTrip(t *testing.T) {
	f := func(v uint64, n uint8) bool {
		k := int(n % 21)
		p := FromUint(v, k)
		var mask uint64
		if k > 0 {
			mask = (1<<uint(k) - 1)
		}
		return p.Uint() == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Sub returns bits l through k of p inclusive, 1-based, mirroring the
// paper's sub_path(p1…pn, l, k) = pl…pk. l = k+1 yields the empty path.
func (p Path) Sub(l, k int) Path {
	if l < 1 || k > len(p) || l > k+1 {
		panic(fmt.Sprintf("bitpath: Sub(%d,%d) out of range for path of length %d", l, k, len(p)))
	}
	return p[l-1 : k]
}

// Parent returns p without its last bit; it panics on the empty path.
func (p Path) Parent() Path {
	if len(p) == 0 {
		panic("bitpath: Parent of empty path")
	}
	return p[:len(p)-1]
}

// Interval returns [lo, hi) = I(p) = [val(p), val(p)+2^-n).
func (p Path) Interval() (lo, hi float64) {
	lo = p.Val()
	return lo, lo + p.Width()
}

// Contains reports whether val(q) lies in I(p), i.e. whether a query with
// key q belongs to the region p is responsible for. For binary paths this is
// exactly the prefix relation when len(q) >= len(p), and interval containment
// otherwise (a short query key covers many leaves; it is "contained" only if
// its whole interval lies within I(p)).
func (p Path) Contains(q Path) bool {
	if len(q) >= len(p) {
		return q.HasPrefix(p)
	}
	return false
}

// All returns every path of exactly n bits in val() order. Intended for
// tests and small enumerations; it panics if n > 20 to prevent accidents.
func All(n int) []Path {
	if n < 0 || n > 20 {
		panic(fmt.Sprintf("bitpath: All(%d) out of sensible range", n))
	}
	out := make([]Path, 0, 1<<uint(n))
	for v := uint64(0); v < 1<<uint(n); v++ {
		out = append(out, FromUint(v, n))
	}
	return out
}

// Val returns val(k) = Σ_{i=1..n} 2^-i·pi, the lower end of I(k).
func (p Path) Val() float64 {
	v := 0.0
	w := 0.5
	for i := 0; i < len(p); i++ {
		if p[i] == '1' {
			v += w
		}
		w /= 2
	}
	return v
}

// Width returns the width 2^-n of the interval I(p).
func (p Path) Width() float64 {
	w := 1.0
	for i := 0; i < len(p); i++ {
		w /= 2
	}
	return w
}
