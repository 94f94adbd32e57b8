//go:build !race

package fleet

// raceEnabled reports a test binary built with the race detector.
const raceEnabled = false
