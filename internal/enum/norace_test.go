//go:build !race

package enum

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
