//go:build !race

package gradient

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation-count assertions skip under race because the
// detector's instrumentation allocates on its own.
const raceEnabled = false
