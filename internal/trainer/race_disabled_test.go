//go:build !race

package trainer

// raceEnabled reports whether this test binary was built with the race
// detector. Allocation readings skip under race: the detector's
// instrumentation allocates on its own, and sync.Pool drops what it is
// handed at random.
const raceEnabled = false
