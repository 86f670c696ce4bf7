//go:build race

package dataset

// raceEnabled reports whether this test binary was built with the race
// detector. Tests that sweep GOMAXPROCS themselves skip under race, and the
// outcome grid runs thinned there.
const raceEnabled = true
