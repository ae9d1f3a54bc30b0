// Package wire defines the message protocol spoken between networked
// P-Grid nodes and the binary frame codec (binary.go) that carries it over
// byte streams (TCP). The protocol has one round trip per algorithm step:
// a search visits one peer per query, which answers from its own state and
// leaves the walk of Fig. 2 to the asker, and exchanges ship the
// initiator's state to the responder, which computes the joint decision of
// Fig. 3 and returns the initiator's half.
package wire

import (
	"errors"
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pgrid/internal/addr"
	"pgrid/internal/bitpath"
	"pgrid/internal/health"
	"pgrid/internal/repair"
	"pgrid/internal/store"
	"pgrid/internal/telemetry"
	"pgrid/internal/trace"
)

// Kind discriminates message payloads.
type Kind uint8

// Message kinds. Requests have even values; their responses follow at +1
// (KindError is the odd man out at 14; 15 stays reserved so later kinds
// keep the parity convention). New kinds are only ever appended and a
// retired kind's slot stays reserved — the numbering is part of the wire
// format, and renumbering would make mixed-version communities misread
// each other.
const (
	KindQuery Kind = iota
	KindQueryResp
	KindExchange
	KindExchangeResp
	KindApply
	KindApplyResp
	KindGet
	KindGetResp
	KindInfo
	KindInfoResp
	KindScan
	KindScanResp
	_ // reserved: was the flat stats request (the metrics column carries a superset)
	_ // reserved: was the stats response
	KindError
	_ // reserved: keeps requests even after the unpaired KindError
	_ // reserved 16–21: were the traces, health and batch pairs
	_
	_
	_
	_
	_
	_ // reserved: was the codec-negotiation hello
	_ // reserved: was the hello response
	_ // reserved 24–29: were the metrics, history and repair pairs
	_
	_
	_
	_
	_
	KindObserve
	KindObserveResp
)

// kindNames is the Kind → label table. Hoisted to package level: String
// sits on log and metric hot paths (every RPC stamps its kind at least
// twice), and rebuilding the array per call showed up in profiles. A
// reserved slot is labelled kind(N), as any code beyond the table is.
var kindNames = [...]string{"query", "query-resp", "exchange", "exchange-resp",
	"apply", "apply-resp", "get", "get-resp", "info", "info-resp",
	"scan", "scan-resp", "kind(12)", "kind(13)", "error", "kind(15)",
	"kind(16)", "kind(17)", "kind(18)", "kind(19)", "kind(20)", "kind(21)",
	"kind(22)", "kind(23)", "kind(24)", "kind(25)", "kind(26)", "kind(27)",
	"kind(28)", "kind(29)", "observe", "observe-resp"}

// String names the kind for logs.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Message is the envelope for every protocol payload. Exactly one payload
// pointer matching Kind is set.
type Message struct {
	Kind Kind
	// From names the sender: a node names itself, a client addr.Nil. Only
	// an exchange's responder reads it (the initiator it meets); a query
	// visit is answered the same whoever asks.
	From addr.Addr

	Query        *QueryReq
	QueryResp    *QueryResp
	Exchange     *ExchangeReq
	ExchangeResp *ExchangeResp
	Apply        *ApplyReq
	ApplyResp    *ApplyResp
	Get          *GetReq
	GetResp      *GetResp
	Info         *InfoReq
	InfoResp     *InfoResp
	Scan         *ScanReq
	ScanResp     *ScanResp
	Observe      *ObserveReq
	ObserveResp  *ObserveResp
	Error        string
}

// QueryReq is one visit of a Fig. 2 search (query(a, p, l)): is the receiver,
// Level bits of its path consumed, responsible for the remaining query path
// Key, and if not, through which references does the asker go on (core.Answer)?
type QueryReq struct {
	Key   bitpath.Path
	Level int
	// Ctx is the distributed trace context, nil for untraced queries.
	Ctx *trace.SpanContext
	// Read, when set, rides on every visit and is answered by the peer the
	// search ends at, from its own store, in the response that reports it
	// responsible (QueryResp.Entry, Has) — the read costs no message of its
	// own. It holds the full key, because Key is only the suffix still to be
	// routed.
	Read *GetReq

	// answer is the room a query decoded off the wire is answered in, cut from
	// the object it was decoded into; nil for a request built in process.
	answer *QueryAnswer
}

// Answer returns the room q is to be answered in: the one the codec decoded q
// with, the first time it is asked for, and a fresh one after that or for a
// request built in process. A room is handed out once, so a request handled
// twice is answered twice, in two rooms.
func (q *QueryReq) Answer() *QueryAnswer {
	if a := q.answer; a != nil && a.handed.CompareAndSwap(false, true) {
		return a
	}
	return new(QueryAnswer)
}

// QueryAnswer is a served query's answer as the one object it is sent as: the
// reply, its QueryResp and room for the references of a level of up to 16.
type QueryAnswer struct {
	Reply Message
	Resp  QueryResp
	Refs  [16]addr.Addr

	handed atomic.Bool
}

// QueryCall is a visit as the one object it is sent as: the envelope, the
// request and its own copy of the read riding on it. Whoever sends it owns it
// again once the call that carried it has returned — nothing on the call path
// keeps a request — and fills it anew for its next visit.
type QueryCall struct {
	m Message
	q QueryReq
	r GetReq
}

// Fill makes c the visit for key at level, with read (nil for a plain query)
// riding along, and returns the message to send.
func (c *QueryCall) Fill(from addr.Addr, key bitpath.Path, level int, ctx *trace.SpanContext, read *GetReq) *Message {
	c.q = QueryReq{Key: key, Level: level, Ctx: ctx}
	if read != nil {
		c.r = *read
		c.q.Read = &c.r
	}
	c.m = Message{Kind: KindQuery, From: from, Query: &c.q}
	return &c.m
}

// QueryResp is a visited peer's answer, from its own state: whether it is
// responsible (Found, with Peer naming it), its path, and otherwise the
// references of the level the search continues at.
type QueryResp struct {
	Found bool
	Peer  addr.Addr
	Path  bitpath.Path
	Refs  RefSet
	// Messages and Backtracks are not sent: the asker counts (core.Walk).
	Messages   int
	Backtracks int
	// Entry answers the request's Read from the responsible peer's store,
	// and Has reports whether that peer held one (a plain query, or a
	// responsible peer without the entry, leaves both zero).
	Entry store.Entry
	Has   bool
}

// ExchangeReq carries the initiator's state snapshot: the responder
// computes the Fig. 3 decision for both sides.
type ExchangeReq struct {
	Path bitpath.Path
	// Refs[i] holds the initiator's references at level i+1.
	Refs []RefSet
	// Depth is the recursion depth r.
	Depth int
}

// RefSet is the wire form of a reference set.
type RefSet struct {
	Addrs []addr.Addr
}

// ToSet converts to an addr.Set — the addresses in first-occurrence order,
// without duplicates or Nil — in time linear in the list, however long a
// peer made it.
func (r RefSet) ToSet() addr.Set { return addr.NewSet(r.Addrs...) }

// FromSet converts from an addr.Set.
func FromSet(s addr.Set) RefSet { return RefSet{Addrs: s.Slice()} }

// ExchangeResp tells the initiator how to update itself.
type ExchangeResp struct {
	// BasePath echoes the initiator path the decision was computed from;
	// the initiator applies the decision only if its path is unchanged
	// (optimistic concurrency, like a real peer discarding a stale reply).
	BasePath bitpath.Path
	// Extend, when true, appends ExtendBit with ExtendRefs at the new
	// level (cases 1–3 seen from the initiator's side).
	Extend     bool
	ExtendBit  byte
	ExtendRefs RefSet
	// SetRefs replaces reference sets at existing levels (common-level
	// mixing, case 2/3 additions). Keys are 1-based levels.
	SetRefs map[int]RefSet
	// AddBuddy records the responder as a replica (same path at maxl).
	AddBuddy bool
	// ForwardTo asks the initiator to recursively exchange with these
	// peers at Depth+1 (case 4).
	ForwardTo []addr.Addr
	// Handover carries index entries that fell out of the responder's
	// narrowed responsibility and now belong to the initiator's side.
	Handover []store.Entry
}

// ApplyReq installs index entries at the receiver, each as store.Apply would.
// A KindApply carries at least one entry, an info rider exactly one.
type ApplyReq struct {
	Entries []store.Entry
}

// ApplyResp reports whether any entry was new or fresher.
type ApplyResp struct {
	Changed bool
}

// GetReq reads the entry stored under (Key, Name) at the receiver.
type GetReq struct {
	Key  bitpath.Path
	Name string
}

// GetResp returns the entry, if present.
type GetResp struct {
	Entry store.Entry
	Found bool
}

// ScanReq asks the receiver for every index entry under a key prefix
// (textual prefix search with order-preserving keys). A scan riding on a BFS
// visit also asks for the range digest (store.PrefixDigest) and names in Held
// the digests of up to MaxHeld lists the caller already holds: a receiver
// whose range digest is one of them answers "same" instead of sending the list
// again. A KindScan request names none.
type ScanReq struct {
	Prefix bitpath.Path
	Held   []uint64
}

// MaxHeld bounds the digests one scan rider names.
const MaxHeld = 8

// ScanResp returns the matching entries. The answer to a scan rider carries
// their Digest too, or, with Same set, the digest alone: the receiver's range
// is the held list of that digest. A KindScanResp carries the entries alone.
type ScanResp struct {
	Entries []store.Entry
	Digest  uint64
	Same    bool
}

// InfoReq is the rider a KindInfo request may carry (a plain one carries
// none: Message.Info is nil): one operation for the receiver to perform on
// its own store if its path covers the operation's key — core.ReplicaStep on
// the path it answers with — so that the breadth-first search of Sec. 5.2
// publishes or scans as it visits, for no message of its own. Exactly one of
// Apply and Scan is set, and the apply carries one entry: the search is for
// one key.
type InfoReq struct {
	Apply *ApplyReq
	Scan  *ScanReq

	// answer is the room a rider decoded off the wire is answered in, cut from
	// the object it was decoded into; nil for a request built in process.
	answer *InfoAnswer
}

// Answer returns the room a visit carrying r (nil for a plain visit) is to be
// answered in, as QueryReq.Answer does: the one the codec decoded r with, the
// first time it is asked for, and a fresh one after that, for a request built
// in process or for a plain visit.
func (r *InfoReq) Answer() *InfoAnswer {
	if r != nil {
		if a := r.answer; a != nil && a.handed.CompareAndSwap(false, true) {
			return a
		}
	}
	return new(InfoAnswer)
}

// Key is the key the rider's operation is about: the entry's for an apply,
// the prefix for a scan.
func (r *InfoReq) Key() bitpath.Path {
	if r.Apply != nil {
		return r.Apply.Entries[0].Key
	}
	return r.Scan.Prefix
}

// InfoResp describes the receiver's current state (used by diagnostics, the
// ctl tool and the breadth-first search).
type InfoResp struct {
	Addr    addr.Addr
	Path    bitpath.Path
	Refs    []RefSet
	Buddies RefSet
	Entries int
	// Applied or Scanned answers the request's rider when the receiver's Path
	// covers its key: what the apply reported, or the entries under the
	// prefix. Both stay nil for a plain request and at a peer that does not
	// cover the key.
	Applied *ApplyResp
	Scanned *ScanResp
}

// InfoAnswer is an InfoResp as the one object it is sent and received as: the
// reply, with room for the answer to a rider and for the link state. A node
// answers a KindInfo in one, and the codec decodes every info answer into one.
type InfoAnswer struct {
	Reply   Message
	Resp    InfoResp
	Applied ApplyResp
	Scanned ScanResp
	Room    LinkRoom

	handed atomic.Bool
	buf    *[]store.Entry // a Room's: a pooled slice to scan into; nil for any other answer
}

// Scan answers the scan rider r in a from s: with the entries under r's
// prefix and their digest, or "same" when s's range digest is one r holds. A Room's answer appends the entries to a pooled
// slice, which the room gives back once the reply is written; any other
// answer — one its caller keeps — scans into an exact-size slice of its own.
func (a *InfoAnswer) Scan(s *store.Store, r *ScanReq) {
	a.Resp.Scanned = &a.Scanned
	if len(r.Held) > 0 {
		if d := s.PrefixDigest(r.Prefix); slices.Contains(r.Held, d) {
			a.Scanned.Digest, a.Scanned.Same = d, true
			return
		}
	}
	var dst []store.Entry
	if a.buf != nil {
		dst = *a.buf
	}
	a.Scanned.Entries, a.Scanned.Digest = s.AppendPrefixScan(dst, r.Prefix)
}

// LinkRoom is room for a peer's link state — the per-level reference sets and
// the one address array they and the buddy set are cut from — inside the object
// the message carrying it is. It holds a path of up to 8 levels with up to 64
// addresses in all: pgridnode's defaults (maxl 8, refmax 5) with 24 buddies to
// spare. A deeper or wider state takes arrays of its own.
type LinkRoom struct {
	sets  [8]RefSet
	addrs [64]addr.Addr
}

// Take returns n empty reference sets and an empty address array with room for
// total addresses, cut from r where they fit and allocated where they do not (a
// nil r has no room). No sets, or no addresses, are nil.
func (r *LinkRoom) Take(n, total int) (sets []RefSet, all []addr.Addr) {
	switch {
	case n == 0:
	case r != nil && n <= len(r.sets):
		sets = r.sets[:n:n]
	default:
		sets = make([]RefSet, n)
	}
	switch {
	case total == 0:
	case r != nil && total <= len(r.addrs):
		all = r.addrs[:0:total]
	default:
		all = make([]addr.Addr, 0, total)
	}
	return sets, all
}

// AppendSet appends s's addresses to all, which Take sized, and returns them as
// the set that is all's new tail, with the extended array.
func AppendSet(all []addr.Addr, s addr.Set) (RefSet, []addr.Addr) {
	return tailSet(s.AppendTo(all), len(all))
}

// tailSet returns all[from:] as a set that cannot grow into whatever is
// appended behind it, with nil Addrs when it is empty.
func tailSet(all []addr.Addr, from int) (RefSet, []addr.Addr) {
	if from == len(all) {
		return RefSet{}, all
	}
	return RefSet{Addrs: all[from:len(all):len(all)]}, all
}

// Ask names one column an ObserveReq asks for, or a modifier of one.
type Ask uint8

// The asks, one bit each. AskLiveness and AskRepairNow modify a column and
// name none of their own.
const (
	AskLinks     Ask = 1 << iota // the InfoResp fields: address, path, references, buddies, entry count
	AskHealth                    // the replica digest and the completed probe rounds
	AskLiveness                  // with AskHealth: the digest's per-level probe tallies
	AskMetrics                   // the full mergeable metrics snapshot
	AskHistory                   // the sampled metrics history, bounded by WindowNS and MaxPoints
	AskRepair                    // the repair status
	AskRepairNow                 // with AskRepair: one synchronous repair round first
	AskTraces                    // the flight recorder's newest sampled traces, up to TraceLimit

	columnAsks = AskLinks | AskHealth | AskMetrics | AskHistory | AskRepair | AskTraces
)

// Valid reports whether each modifier in a comes with the column it modifies:
// the codec refuses an observe that breaks it, on either side of the wire.
func (a Ask) Valid() bool {
	return (a&AskLiveness == 0 || a&AskHealth != 0) && (a&AskRepairNow == 0 || a&AskRepair != 0)
}

// askNames spells each ask, bit by bit, the way an observe query string names
// it.
var askNames = [...]string{"links", "health", "liveness", "metrics", "history", "repair", "repair-now", "traces"}

// ParseObserve reads an observe query string — the one grammar of
// /debug/observe and `pgridctl observe` — as the request a peer would send,
// held to Valid: ask=NAME,... names the columns and their modifiers, limit=N
// caps both the history points and the traces, window=DUR bounds the history.
func ParseObserve(q url.Values) (ObserveReq, error) {
	var req ObserveReq
	for _, name := range strings.Split(q.Get("ask"), ",") {
		i := slices.Index(askNames[:], name)
		if i < 0 {
			return req, fmt.Errorf("ask %q: want %s", name, strings.Join(askNames[:], ", "))
		}
		req.Asks |= Ask(1) << i
	}
	if !req.Asks.Valid() {
		return req, errors.New("a modifier without its column: liveness needs health, repair-now needs repair")
	}
	if s := q.Get("limit"); s != "" {
		limit, err := strconv.Atoi(s)
		if err != nil || limit < 0 {
			return req, fmt.Errorf("bad limit %q", s)
		}
		req.MaxPoints, req.TraceLimit = int64(limit), limit
	}
	if s := q.Get("window"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d < 0 {
			return req, fmt.Errorf("bad window %q", s)
		}
		req.WindowNS = int64(d)
	}
	return req, nil
}

// ObserveReq is an operator's one question to a peer: which columns to answer,
// and the parameters of the ones that take any, which travel whatever is
// asked. WindowNS bounds the history (0 = full retention) and MaxPoints caps
// its newest points (0 = all held); TraceLimit caps the traces (<= 0 = all
// retained).
type ObserveReq struct {
	Asks       Ask
	WindowNS   int64
	MaxPoints  int64
	TraceLimit int
}

// ObserveResp answers an ObserveReq with one column per ask, nil where none was
// asked, and an empty one where the peer runs without the feature behind it.
type ObserveResp struct {
	Links   *InfoResp // the rider answers stay nil
	Health  *HealthColumn
	Metrics *telemetry.MetricsSnapshot
	History *telemetry.HistoryDump
	Repair  *repair.Status
	Traces  *TracesColumn
}

// HealthColumn is the receiver's replica digest. Rounds counts the probe
// rounds it has completed — one per repair round (0 when repair is off).
type HealthColumn struct {
	Digest health.Digest
	Rounds int64
}

// TracesColumn is the flight recorder snapshot, newest first. Total counts
// every trace ever recorded, including ones the ring has evicted.
type TracesColumn struct {
	Total  uint64
	Traces []trace.Trace
}

// columns returns the asks whose columns r carries.
func (r *ObserveResp) columns() (c Ask) {
	for ask, set := range map[Ask]bool{AskLinks: r.Links != nil, AskHealth: r.Health != nil, AskMetrics: r.Metrics != nil,
		AskHistory: r.History != nil, AskRepair: r.Repair != nil, AskTraces: r.Traces != nil} {
		if set {
			c |= ask
		}
	}
	return c
}

// Answers reports whether r carries every column asks names.
func (r *ObserveResp) Answers(asks Ask) bool { return asks&columnAsks&^r.columns() == 0 }

// MaxFrameSize bounds a single encoded message; larger frames are
// rejected as corrupt rather than allocated.
const MaxFrameSize = 16 << 20

// ErrCorrupt reports a frame that arrived but could not be decoded — a bad
// header, an oversized length or a payload that does not parse. Corruption
// is classified apart from unreachability (internal/resilience): the peer
// answered, with garbage, so retrying the same request is waste.
var ErrCorrupt = errors.New("wire: corrupt frame")

// ErrFrameTooLarge reports an oversized or corrupt length prefix. It
// matches ErrCorrupt under errors.Is.
var ErrFrameTooLarge = fmt.Errorf("%w: exceeds maximum size", ErrCorrupt)
