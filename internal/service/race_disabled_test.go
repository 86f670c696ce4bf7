//go:build !race

package service

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation allocates on its own: byte readings of an
// allocation skip under it.
const raceEnabled = false
