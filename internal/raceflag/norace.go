//go:build !race

package raceflag

// Enabled reports whether the binary was built with -race.
const Enabled = false
