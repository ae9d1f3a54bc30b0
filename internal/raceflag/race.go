//go:build race

// Package raceflag tells tests whether the race detector is compiled in:
// it instruments allocations, so allocation-budget tests skip under it.
package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = true
