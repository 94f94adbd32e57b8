//go:build race

package fleet

// raceEnabled reports a test binary built with the race detector, whose
// sync.Pool drops items at random, so fmt's printer cache allocates
// afresh and allocation counts vary from run to run.
const raceEnabled = true
