//go:build race

package mptcpnet

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates (and makes sync.Pool drop a share of Puts).
const raceEnabled = true
