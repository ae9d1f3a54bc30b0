// Package bitpath implements the binary key algebra of Section 2 of the
// P-Grid paper: keys are binary strings k = p1…pn over {0,1}, ordered by the
// value val(k) = Σ 2^-i·pi, and each key identifies the half-open interval
// I(k) = [val(k), val(k)+2^-n) of the unit key space.
//
// Paths are represented as strings of '0' and '1' bytes. This keeps them
// directly printable, comparable with ==, and usable as map keys; at the path
// lengths P-Grid uses (tens of bits) the encoding overhead is irrelevant next
// to readability.
package bitpath

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
)

// Path is a binary key path: a string containing only '0' and '1'.
// The zero value is the empty path, which denotes the whole key space.
type Path string

// Empty is the root path covering the whole key space.
const Empty Path = ""

// ErrInvalid reports a path containing characters other than '0' and '1'.
var ErrInvalid = errors.New("bitpath: path must contain only '0' and '1'")

// Parse validates s and returns it as a Path.
func Parse(s string) (Path, error) {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return "", fmt.Errorf("%w: %q at index %d", ErrInvalid, s, i)
		}
	}
	return Path(s), nil
}

// MustParse is Parse that panics on invalid input; for tests and literals.
func MustParse(s string) Path {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Valid reports whether p contains only '0' and '1'.
func (p Path) Valid() bool {
	_, err := Parse(string(p))
	return err == nil
}

// Len returns the number of bits in p.
func (p Path) Len() int { return len(p) }

// Bit returns the i-th bit of p using the paper's 1-based indexing
// (value(k, p1…pn) = pk). It panics if i is out of range [1, Len()].
func (p Path) Bit(i int) byte {
	if i < 1 || i > len(p) {
		panic(fmt.Sprintf("bitpath: Bit(%d) out of range for path of length %d", i, len(p)))
	}
	return p[i-1] - '0'
}

// Append returns p extended with bit b (0 or 1).
func (p Path) Append(b byte) Path {
	if b > 1 {
		panic(fmt.Sprintf("bitpath: Append(%d): bit must be 0 or 1", b))
	}
	return p + Path('0'+b)
}

// AppendFlip returns p extended with the complement of bit b; this is the
// p^- = (p+1) MOD 2 specialization step of the construction algorithm.
func (p Path) AppendFlip(b byte) Path {
	if b > 1 {
		panic(fmt.Sprintf("bitpath: AppendFlip(%d): bit must be 0 or 1", b))
	}
	return p + Path('1'-b)
}

// Prefix returns the first i bits of p (prefix(i, a) in the paper).
// It panics if i is out of range [0, Len()].
func (p Path) Prefix(i int) Path {
	if i < 0 || i > len(p) {
		panic(fmt.Sprintf("bitpath: Prefix(%d) out of range for path of length %d", i, len(p)))
	}
	return p[:i]
}

// Suffix returns p with its first i bits removed.
func (p Path) Suffix(i int) Path {
	if i < 0 || i > len(p) {
		panic(fmt.Sprintf("bitpath: Suffix(%d) out of range for path of length %d", i, len(p)))
	}
	return p[i:]
}

// CommonPrefix returns the longest common prefix of p and q
// (common_prefix_of in the paper).
func CommonPrefix(p, q Path) Path {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	i := 0
	for i < n && p[i] == q[i] {
		i++
	}
	return p[:i]
}

// CommonPrefixLen returns the length of the longest common prefix of p and q.
func CommonPrefixLen(p, q Path) int { return len(CommonPrefix(p, q)) }

// HasPrefix reports whether q is a prefix of p.
func (p Path) HasPrefix(q Path) bool { return strings.HasPrefix(string(p), string(q)) }

// HasSuffix reports whether q is a suffix of p.
func (p Path) HasSuffix(q Path) bool { return strings.HasSuffix(string(p), string(q)) }

// Comparable reports whether p and q are in a prefix relationship
// (one is a prefix of the other, including equality).
func Comparable(p, q Path) bool { return p.HasPrefix(q) || q.HasPrefix(p) }

// Sibling returns p with its last bit flipped; it panics on the empty path.
func (p Path) Sibling() Path {
	if len(p) == 0 {
		panic("bitpath: Sibling of empty path")
	}
	return p[:len(p)-1].AppendFlip(p[len(p)-1] - '0')
}

// Compare orders paths by val(), breaking ties (nested intervals) by length,
// shorter first. It returns -1, 0, or +1. Over the alphabet {'0', '1'} that
// is plain string order, which is why every prefix is one contiguous run of
// a list sorted by it.
func Compare(p, q Path) int { return strings.Compare(string(p), string(q)) }

// Random returns a uniformly random path of exactly n bits.
func Random(rng *rand.Rand, n int) Path {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + byte(rng.Intn(2))
	}
	return Path(b)
}

// FromUint returns the n-bit path whose bits are the n low-order bits of v,
// most significant first. It panics if n is negative or exceeds 64.
func FromUint(v uint64, n int) Path {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitpath: FromUint with n=%d", n))
	}
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		b[i] = '0' + byte((v>>(n-1-i))&1)
	}
	return Path(b)
}

// Uint returns the bits of p packed into a uint64, most significant first.
// It panics if p is longer than 64 bits.
func (p Path) Uint() uint64 {
	if len(p) > 64 {
		panic("bitpath: Uint on path longer than 64 bits")
	}
	var v uint64
	for i := 0; i < len(p); i++ {
		v = v<<1 | uint64(p[i]-'0')
	}
	return v
}

// String returns the path as a plain bit string; the empty path prints as
// "ε" so it is visible in logs.
func (p Path) String() string {
	if len(p) == 0 {
		return "ε"
	}
	return string(p)
}
