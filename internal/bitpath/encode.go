package bitpath

import (
	"crypto/sha256"
	"encoding/binary"
)

// HashKey maps an arbitrary string (e.g. a file name) to a uniformly
// distributed n-bit Path using SHA-256. This is the standard substitution
// for the paper's "totally ordered set of index terms" when the application
// keys are not naturally uniform: hashing uniformizes the distribution, which
// is exactly the paper's stated assumption ("the data distribution is not
// skewed"). n must be in [0, 64].
func HashKey(s string, n int) Path {
	sum := sha256.Sum256([]byte(s))
	v := binary.BigEndian.Uint64(sum[:8])
	return FromUint(v, n)
}

// PrefixKey maps a string to a path that *preserves lexicographic order* by
// encoding each byte as 8 bits, truncated to n bits. This supports the
// paper's Section 6 extension ("for prefix search on text the algorithm can
// be adapted by extending the {0,1} alphabet"): encoding radix-256 digits as
// bit groups makes the binary trie emulate a text trie, so string prefix
// queries become path prefix queries. The resulting key distribution is as
// skewed as the text distribution; pair with the skew workloads.
func PrefixKey(s string, n int) Path {
	b := make([]byte, 0, n)
	for i := 0; i < len(s) && len(b) < n; i++ {
		c := s[i]
		for bit := 7; bit >= 0 && len(b) < n; bit-- {
			b = append(b, '0'+(c>>uint(bit))&1)
		}
	}
	for len(b) < n {
		b = append(b, '0')
	}
	return Path(b)
}
