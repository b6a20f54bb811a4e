//go:build race

package sim

// raceEnabled reports a -race build: the race detector's
// instrumentation allocates, so allocation-count assertions skip.
const raceEnabled = true
