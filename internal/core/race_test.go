//go:build race

package core_test

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own: exact allocation pins skip under it.
const raceEnabled = true
