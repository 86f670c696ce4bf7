// Package invariant centralizes programmer-error panics for the library
// packages under internal/.
//
// The sketchlint panic-in-library analyzer forbids raw panic calls in
// library code: a panic on the hot path of a parameter server takes down
// the whole worker, so every deliberate invariant failure must be visible
// as a call into this package (or live inside a Must*-named helper).
// Routing them through here keeps the call sites greppable and leaves one
// place to change if invariant failures ever need to become errors or
// structured logs.
//
// Failure messages follow the same "pkg: detail" convention as the errors
// in this repository.
package invariant

import "fmt"

// Fail unconditionally panics with msg. Call it from the failure branch of
// a hand-written check when formatting must not run on the success path.
func Fail(msg string) {
	panic(msg)
}

// Failf unconditionally panics with the formatted message.
func Failf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
