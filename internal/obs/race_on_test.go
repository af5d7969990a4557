//go:build race

package obs

// raceEnabled reports whether the race detector instruments this build;
// allocation-count pins are skipped under it (instrumentation allocates).
const raceEnabled = true
