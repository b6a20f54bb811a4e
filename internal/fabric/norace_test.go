//go:build !race

package fabric

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
