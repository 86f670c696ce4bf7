// Package staleallow is a sketchlint test fixture for the
// stale-suppression check: one directive that suppresses a live finding,
// one that suppresses nothing, and one naming an analyzer outside the
// run's analyzer set (never stale-checked). Expectations live in the test
// (TestStaleAllowDetection) — the check runs after the analyzers, so the
// want-comment machinery does not apply.
package staleallow

// Used compares floats exactly; the directive suppresses a live finding.
func Used(a, b float64) bool {
	//lint:allow float-equality exact sentinel comparison, fixture
	return a == b
}

// Stale guards nothing: integer equality never fires float-equality.
func Stale(a, b int) bool {
	//lint:allow float-equality integers never trip the analyzer
	return a == b
}

// OutsideRun names an analyzer the test's run leaves out; a run cannot
// call stale what it did not check.
func OutsideRun() int {
	//lint:allow panic-in-library only analyzers that ran are stale-checked
	return 0
}
