package invariant

import "testing"

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
		if s, ok := r.(string); !ok || s != want {
			t.Fatalf("panic = %v, want %q", r, want)
		}
	}()
	fn()
}

func TestFail(t *testing.T) {
	mustPanic(t, "pkg: boom", func() { Fail("pkg: boom") })
	mustPanic(t, "pkg: boom 7", func() { Failf("pkg: boom %d", 7) })
}
