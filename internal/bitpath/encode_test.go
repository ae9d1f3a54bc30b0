package bitpath

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHashKeyDeterministicAndUniform(t *testing.T) {
	if HashKey("song.mp3", 16) != HashKey("song.mp3", 16) {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("a", 16) == HashKey("b", 16) {
		t.Fatal("HashKey collides on trivially different inputs (suspicious)")
	}
	// First-bit balance over many random names: binomial with n=2000, p=0.5;
	// allow 6 sigma.
	rng := rand.New(rand.NewSource(7))
	n := 2000
	ones := 0
	for i := 0; i < n; i++ {
		name := randName(rng)
		p := HashKey(name, 20)
		if p.Len() != 20 {
			t.Fatalf("HashKey length = %d", p.Len())
		}
		if p.Bit(1) == 1 {
			ones++
		}
	}
	mean, sigma := float64(n)/2, math.Sqrt(float64(n)*0.25)
	if math.Abs(float64(ones)-mean) > 6*sigma {
		t.Errorf("HashKey first bit heavily biased: %d/%d ones", ones, n)
	}
}

func randName(rng *rand.Rand) string {
	var sb strings.Builder
	for j := 0; j < 8; j++ {
		sb.WriteByte(byte('a' + rng.Intn(26)))
	}
	return sb.String()
}

func TestPrefixKeyPreservesOrder(t *testing.T) {
	words := []string{"apple", "apply", "banana", "bandana", "cherry"}
	for i := 0; i < len(words); i++ {
		for j := i + 1; j < len(words); j++ {
			a, b := PrefixKey(words[i], 40), PrefixKey(words[j], 40)
			if Compare(a, b) >= 0 {
				t.Errorf("PrefixKey broke order: %q !< %q", words[i], words[j])
			}
		}
	}
}

func TestPrefixKeyPrefixRelation(t *testing.T) {
	// A string prefix must become a path prefix when fully encoded.
	full := PrefixKey("data", 32)
	pre := PrefixKey("da", 16)
	if !full.HasPrefix(pre) {
		t.Errorf("string prefix did not yield path prefix: %q vs %q", pre, full)
	}
}

func TestPrefixKeyPadding(t *testing.T) {
	p := PrefixKey("a", 16)
	if p.Len() != 16 {
		t.Fatalf("len = %d, want 16", p.Len())
	}
	if !strings.HasSuffix(string(p), "00000000") {
		t.Errorf("expected NUL padding, got %q", p)
	}
}

func TestDecodePrefixKeyRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "hello", "P-Grid"} {
		p := PrefixKey(s, (len(s)+2)*8)
		got, err := DecodePrefixKey(p)
		if err != nil {
			t.Fatalf("DecodePrefixKey(%q): %v", s, err)
		}
		if got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if _, err := DecodePrefixKey(MustParse("0101")); err == nil {
		t.Error("expected error for non-byte-aligned path")
	}
}

func TestPropPrefixKeyOrderPreserving(t *testing.T) {
	f := func(a, b string) bool {
		// Truncate to printable-ish short strings to keep paths comparable.
		if len(a) > 6 {
			a = a[:6]
		}
		if len(b) > 6 {
			b = b[:6]
		}
		pa, pb := PrefixKey(a, 64), PrefixKey(b, 64)
		switch {
		case a < b:
			return Compare(pa, pb) <= 0
		case a > b:
			return Compare(pa, pb) >= 0
		default:
			return Compare(pa, pb) == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// DecodePrefixKey inverts PrefixKey for paths whose length is a multiple of
// 8, returning the text prefix the path encodes. Trailing NUL padding is
// stripped. It is the oracle the PrefixKey tests decode with.
func DecodePrefixKey(p Path) (string, error) {
	if len(p)%8 != 0 {
		return "", fmt.Errorf("bitpath: DecodePrefixKey: length %d is not a multiple of 8", len(p))
	}
	out := make([]byte, 0, len(p)/8)
	for i := 0; i < len(p); i += 8 {
		var c byte
		for j := 0; j < 8; j++ {
			c = c<<1 | (p[i+j] - '0')
		}
		if c == 0 {
			break
		}
		out = append(out, c)
	}
	return string(out), nil
}
