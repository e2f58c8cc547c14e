//go:build race

package pathcache_test

// raceEnabled reports a -race build, whose instrumentation allocates and
// so voids allocation counts.
const raceEnabled = true
