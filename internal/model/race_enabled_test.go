//go:build race

package model

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation-count assertions skip under race because the
// detector makes sync.Pool drop what it is handed at random.
const raceEnabled = true
