// Package resilience turns a best-effort Transport into a dependable one.
//
// The paper's availability result (Eq. 3) assumes a search keeps trying
// alternative references whenever a peer is offline with probability 1-p;
// the networked stack gives every protocol exactly one datagram's worth of
// luck per peer. This package supplies the missing layer between the two:
//
//   - error classification: failures are Transient (retry may help),
//     Terminal (the peer answered; retrying is waste), or Corrupt (the
//     peer misbehaved; retrying is waste and the peer is suspect);
//   - retries with exponential backoff and deterministic jitter, bounded
//     by a per-client retry budget so a failing community cannot amplify
//     its own load into a retry storm;
//   - per-peer circuit breakers (closed → open → half-open) so dead peers
//     fail fast instead of being re-timed-out on every contact.
//
// ResilientTransport composes the three around any Transport. The chaos
// harness that proves the layer is test code in internal/node
// (chaos_harness_test.go).
package resilience

import (
	"errors"
	"fmt"
)

// Class sorts RPC failures by what a caller should do about them.
type Class uint8

const (
	// Transient failures — lost datagrams, unreachable or overloaded
	// peers, timeouts — may succeed on retry.
	Transient Class = iota
	// Terminal failures mean the peer answered with an application error:
	// the peer is alive and retrying the same request is waste. Routing
	// should backtrack to an alternative reference instead.
	Terminal
	// Corrupt failures mean the peer answered garbage — an undecodable
	// frame or a response of the wrong shape. Retrying is waste and the
	// peer counts as misbehaving.
	Corrupt
)

// String names the class for labels and logs.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Terminal:
		return "terminal"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// classedError carries a Class down an error chain.
type classedError struct {
	err   error
	class Class
}

func (e *classedError) Error() string { return e.err.Error() }
func (e *classedError) Unwrap() error { return e.err }

// Mark wraps err with an explicit class, recoverable via ClassOf. A nil
// err returns nil.
func Mark(err error, c Class) error {
	if err == nil {
		return nil
	}
	return &classedError{err: err, class: c}
}

// ClassOf walks the error chain for a class set by Mark. Unmarked errors
// default to Transient: an unexplained network failure is worth one more
// try, while the explicit classes must be claimed. Callers with richer
// context (internal/node knows its sentinel errors) supply their own
// classifier to ResilientTransport instead.
func ClassOf(err error) Class {
	var ce *classedError
	if errors.As(err, &ce) {
		return ce.class
	}
	return Transient
}

// ErrBreakerOpen reports a call refused locally because the target peer's
// circuit breaker is open. It classifies as Transient — the peer may
// recover — but ResilientTransport never retries it: the whole point of
// the breaker is to fail fast so routing backtracks immediately.
var ErrBreakerOpen = errors.New("resilience: circuit open")
