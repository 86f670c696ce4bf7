// Package pragma is a sketchlint test fixture for the pragma analyzer:
// directive hygiene for the allow comments. The want expectations are
// embedded inside the directive comments themselves, because the
// diagnostics anchor at the comment's own line.
package pragma

// BadAllows carries the allow shapes whose diagnostics can embed a want:
// an unknown analyzer name and an unknown lint verb. The trailing want
// text reads as justification, which those two checks ignore.
func BadAllows(a, b float64) bool {
	//lint:allow no-such-analyzer embedded bogus name // want "unknown analyzer"
	eq := a == b
	//lint:deny float-equality // want "unknown lint directive"
	return eq
}
