package core

import (
	"fmt"
	"sync/atomic"

	"pgrid/internal/telemetry"
)

// Metrics counts the communication events the paper's evaluation measures.
// All counters are safe for concurrent use.
type Metrics struct {
	// Exchanges counts calls to the exchange function, including recursive
	// ones — the construction cost metric e of Section 5.1.
	Exchanges atomic.Int64

	// Messages counts successful peer-to-peer contacts during search and
	// update operations (the Section 5.2 message metric).
	Messages atomic.Int64

	// Tel, when non-nil, receives fine-grained instrumentation beyond the
	// two paper counters: the Fig. 3 case taken per exchange, and (when an
	// event sink is attached) one structured event per exchange. Nil
	// disables it at the cost of a single branch per exchange.
	Tel *telemetry.Instruments
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() (exchanges, messages int64) {
	return m.Exchanges.Load(), m.Messages.Load()
}

// String renders the counters for logs.
func (m *Metrics) String() string {
	e, msg := m.Snapshot()
	return fmt.Sprintf("metrics{exchanges=%d messages=%d}", e, msg)
}
