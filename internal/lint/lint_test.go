package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRE extracts the expected-message substring from a fixture comment
// of the form: // want "substring"
var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkg
}

// checkFixture runs one analyzer over its fixture and verifies the
// diagnostics line up exactly with the fixture's want comments: every
// want has a matching diagnostic and every diagnostic has a want.
func checkFixture(t *testing.T, name string, analyzer *Analyzer) {
	t.Helper()
	loader, pkg := loadFixture(t, name)

	type want struct {
		substr  string
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.Fset().Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], &want{substr: m[1]})
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

	diags := Run(loader.Fset(), []*Package{pkg}, []*Analyzer{analyzer}, false)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic containing %q, got none", key, w.substr)
			}
		}
	}
}

func TestFloatEqualityFixture(t *testing.T)  { checkFixture(t, "floateq", FloatEquality()) }
func TestUncheckedErrorFixture(t *testing.T) { checkFixture(t, "uncheckederr", UncheckedError()) }
func TestWireEndiannessFixture(t *testing.T) { checkFixture(t, "endianness", WireEndianness()) }
func TestPanicInLibraryFixture(t *testing.T) { checkFixture(t, "paniclib", PanicInLibrary()) }
func TestPragmaFixture(t *testing.T)         { checkFixture(t, "pragma", Pragma()) }

// TestPragmaAllowForms covers the two allow shapes whose diagnostics
// cannot carry embedded want comments: trailing text would read as names
// or as the justification the checks look for.
func TestPragmaAllowForms(t *testing.T) {
	loader, pkg := loadFixture(t, "pragmaallow")
	diags := Run(loader.Fset(), []*Package{pkg}, []*Analyzer{Pragma()}, false)
	want := []string{"names no analyzers", "without a justification"}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, substr := range want {
		if !strings.Contains(diags[i].Message, substr) {
			t.Errorf("diagnostic %d = %s, want message containing %q", i, diags[i], substr)
		}
	}
}

// TestStaleAllowDetection pins the stale-suppression check: a consumed
// directive stays silent, an unfired one is reported, and a directive
// naming an analyzer outside the run's set is never stale-checked.
func TestStaleAllowDetection(t *testing.T) {
	loader, pkg := loadFixture(t, "staleallow")
	diags := Run(loader.Fset(), []*Package{pkg}, []*Analyzer{FloatEquality()}, true)
	staleLine := fixtureMarkerLine(t,
		filepath.Join("testdata", "src", "staleallow", "staleallow.go"), "integers never trip")
	var stale []Diagnostic
	for _, d := range diags {
		if d.Analyzer == StaleAllowAnalyzer {
			stale = append(stale, d)
		} else {
			t.Errorf("unexpected non-stale diagnostic: %s", d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("got %d stale-allow diagnostics, want 1: %v", len(stale), stale)
	}
	if stale[0].Pos.Line != staleLine {
		t.Errorf("stale-allow at line %d, want %d", stale[0].Pos.Line, staleLine)
	}
	if !strings.Contains(stale[0].Message, "float-equality") {
		t.Errorf("stale-allow message %q does not name the analyzer", stale[0].Message)
	}
}

// fixtureMarkerLine returns the 1-based line of the first fixture line
// containing marker.
func fixtureMarkerLine(t *testing.T, path, marker string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, marker) {
			return i + 1
		}
	}
	t.Fatalf("marker %q not found in %s", marker, path)
	return 0
}

// TestScopedAnalyzersSkipForeignPackages pins the path scoping: the
// wire-endianness and panic-in-library analyzers must stay silent outside
// their target packages even when the code would otherwise violate them.
func TestScopedAnalyzersSkipForeignPackages(t *testing.T) {
	if isWirePackage("sketchml/internal/trainer") {
		t.Error("trainer must not be held to wire-format rules")
	}
	for _, path := range []string{"sketchml/internal/codec", "sketchml/internal/bitpack",
		"sketchml/internal/keycoding", "fixture/endianness"} {
		if !isWirePackage(path) {
			t.Errorf("%s should be a wire package", path)
		}
	}
	if internalLibrary("sketchml/cmd/sketchbench") {
		t.Error("cmd binaries are not library packages")
	}
	if !internalLibrary("sketchml/internal/codec") {
		t.Error("internal/codec is a library package")
	}
}

// TestRepoIsClean is the lint gate: it runs the full analyzer suite over the
// whole module — what cmd/sketchlint runs, stale-suppression check included
// — and demands zero findings. The loaded set must hold the linter's own
// packages, so its source keeps to its own rules.
func TestRepoIsClean(t *testing.T) {
	root := filepath.Join("..", "..")
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		loaded[p.Path] = true
	}
	for _, self := range []string{"sketchml/internal/lint", "sketchml/cmd/sketchlint"} {
		if !loaded[self] {
			t.Errorf("the linter's own package %s is not in the loaded set", self)
		}
	}
	diags := Run(loader.Fset(), pkgs, All(), true)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
