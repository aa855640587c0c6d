//go:build race

package proto

// raceEnabled reports whether the test binary was built with -race, whose
// instrumentation allocates.
const raceEnabled = true
