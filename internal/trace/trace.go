// Package trace implements distributed query tracing for P-Grid searches:
// a compact SpanContext that rides inside every visit of a sampled search,
// one Span per visit, which the asker assembles into the route as it walks
// (core.Walk) and each visited node records of its own, and a shared route
// renderer, so one query crossing the real TCP stack leaves the same
// hop-by-hop record the in-process simulator produces with
// core.QueryTraced.
//
// The paper's central claims are per-query properties — greedy prefix
// routing resolves bits hop by hop (Fig. 2) and search cost stays
// O(log n) messages — and this package is what makes those claims
// observable on a live deployment instead of only in simulation.
package trace

import (
	"fmt"
	"strings"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
)

// SpanContext is the compact trace context carried inside wire.Message
// for KindQuery. A query without one (nil) is untraced.
type SpanContext struct {
	// TraceID identifies the whole query route; every span the query
	// produces anywhere in the community carries it. Zero is never a
	// valid id, so a zero-valued context is visibly inert.
	TraceID uint64
	// Parent is the span id of the visit before this one (0 at the first);
	// the visit carrying the context is span Parent+1 of the route.
	Parent uint64
	// Sampled gates span collection; an unsampled context is dead weight.
	Sampled bool
}

// Alive reports whether the context should produce spans at the
// receiving hop.
func (c *SpanContext) Alive() bool {
	return c != nil && c.Sampled && c.TraceID != 0
}

// Mix64 spreads the entropy of z over all 64 bits — the splitmix64
// finalizer, the same mixing pgridnode uses to derive node seeds.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTraceID derives a 64-bit trace id from two entropy sources (an RNG
// draw and a peer address, say) with a splitmix64 round, never zero.
func NewTraceID(a, b uint64) uint64 {
	id := Mix64(a + 0x9e3779b97f4a7c15*(b+1))
	if id == 0 {
		id = 1
	}
	return id
}

// Span records one hop of a traced search: a visit to one peer.
type Span struct {
	// ID identifies this span within its trace: the 1-based visit index.
	// Parent is the visit before it (0 at the first).
	ID     uint64
	Parent uint64
	// Peer is the peer visited.
	Peer addr.Addr
	// Path is its responsibility path at visit time.
	Path bitpath.Path
	// Level is the absolute number of key bits resolved on arrival.
	Level int
	// Ref is the reference a found route went on through from this peer
	// (addr.Nil at its end, on a failed route, and in a visited node's record).
	Ref addr.Addr
	// Matched reports whether the search terminated here.
	Matched bool
	// Backtracked reports that at least one subtree contacted from this
	// hop failed, forcing the search back to an alternative reference.
	Backtracked bool
	// LatencyNS is the wall time of the visit: the asker's round trip, or,
	// in a visited node's own record, its handling (0 in the simulator,
	// which measures in messages, not time).
	LatencyNS int64
}

// Trace is the full recorded route of one search, in visit (DFS
// preorder) order — the distributed twin of core.Trace.
type Trace struct {
	TraceID    uint64
	Key        bitpath.Path
	Found      bool
	Messages   int
	Backtracks int
	Spans      []Span
}

// String renders the route through the shared arrow renderer.
func (t Trace) String() string {
	return Render(t.Key, t.Spans, t.Found, t.Messages)
}

// Render draws one search route like
//
//	key 0110: addr(3)[ε/0] → addr(17)[01/1] → addr(9)[0110/2] ✓ (2 msgs)
//
// with "↩" marking hops that had to backtrack. Simulator traces
// (core.Trace) and distributed traces both render through it, so their
// output is diff-able.
func Render(key bitpath.Path, spans []Span, found bool, messages int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "key %s: ", key)
	for i, s := range spans {
		if i > 0 {
			sb.WriteString(" → ")
		}
		fmt.Fprintf(&sb, "%v[%s/%d]", s.Peer, s.Path, s.Level)
		if s.Backtracked {
			sb.WriteString("↩")
		}
	}
	if found {
		fmt.Fprintf(&sb, " ✓ (%d msgs)", messages)
	} else {
		fmt.Fprintf(&sb, " ✗ (%d msgs)", messages)
	}
	return sb.String()
}
