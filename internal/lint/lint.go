// Package lint implements sketchlint, the project's static-analysis suite.
//
// It keeps only the checks no test makes. A float compared with ==, a
// dropped serialization or I/O error, a native-endian or unsafe wire
// encoding and a raw panic in library code can each compile and pass every
// test, yet each is a defect. The invariants a test does hold by behaviour
// (seeded hashing, bit-stable wire bytes, bounded length headers, joined
// goroutines) are held there instead; DESIGN.md "Verification & static
// analysis" names the test for each. Every analyzer encodes one invariant
// as a syntactic or type-based check over the module's non-test sources.
//
// The implementation uses only the standard library (go/parser, go/ast,
// go/types, go/token); there is deliberately no golang.org/x/tools
// dependency, matching the repository's stdlib-only design rule.
//
// A finding can be suppressed — sparingly — with a comment on the same
// line or the line directly above:
//
//	//lint:allow float-equality exact sentinel comparison, see DESIGN.md
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a fully type-checked package
// through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	// Name is the analyzer identifier used in output and in
	// //lint:allow comments (kebab-case, e.g. "float-equality").
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// Diagnostic is a single finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Path     string
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
	allow map[string]map[int]map[string]bool // file -> line -> analyzer names
	// used records every //lint:allow directive line that suppressed a
	// finding this run, keyed by allowUseKey; the stale-suppression check
	// reads it after all analyzers finish.
	used map[string]bool
}

// StaleAllowAnalyzer names the stale-suppression finding class: a
// //lint:allow directive whose analyzer no longer fires on the line it
// covers. It has no Analyzer value — Run emits it directly after the suite
// finishes, and only when asked to (checkStaleAllows).
const StaleAllowAnalyzer = "stale-allow"

// allowUseKey identifies one (directive line, analyzer) consumption.
func allowUseKey(file string, line int, name string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", file, line, name)
}

// Reportf records a finding at pos unless a //lint:allow comment for this
// analyzer covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowedAt(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether a //lint:allow comment for this analyzer sits
// on the diagnostic's line or the line directly above it, and records each
// such directive line in used for the stale-suppression check.
func (p *Pass) allowedAt(pos token.Position) bool {
	covered := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if p.allow[pos.Filename][line][p.Analyzer.Name] {
			p.used[allowUseKey(pos.Filename, line, p.Analyzer.Name)] = true
			covered = true
		}
	}
	return covered
}

// PkgNameOf resolves the package an identifier refers to when it names an
// import ("rand" in rand.Intn), or "" when it does not.
func (p *Pass) PkgNameOf(ident *ast.Ident) string {
	if obj, ok := p.Info.Uses[ident].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// buildAllow collects //lint:allow comments per file and line.
//
// Syntax: "//lint:allow name1,name2 optional justification". The comment
// suppresses the named analyzers on its own line and the line below.
func buildAllow(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	out := make(map[string]map[int]map[string]bool)
	for _, d := range collectAllowDirectives(fset, files) {
		lines := out[d.File]
		if lines == nil {
			lines = make(map[int]map[string]bool)
			out[d.File] = lines
		}
		names := lines[d.Line]
		if names == nil {
			names = make(map[string]bool)
			lines[d.Line] = names
		}
		for _, name := range d.Names {
			names[name] = true
		}
	}
	return out
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	File  string
	Line  int
	Col   int
	Names []string
}

// collectAllowDirectives parses every //lint:allow comment in files, in
// source order. Malformed directives (no names) are skipped here — the
// pragma analyzer owns reporting those.
func collectAllowDirectives(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "lint:allow")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				var names []string
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						names = append(names, name)
					}
				}
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, allowDirective{
					File: pos.Filename, Line: pos.Line, Col: pos.Column, Names: names,
				})
			}
		}
	}
	return out
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by position. With checkStaleAllows it also emits a
// "stale-allow" diagnostic for every //lint:allow directive naming an
// analyzer that ran but suppressed nothing on the directive's lines; only a
// run over the whole module can prove that, since an unfired directive may
// cover a package not analyzed. Directive names outside the run's analyzer
// set are never stale-checked.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, checkStaleAllows bool) []Diagnostic {
	// used collects every //lint:allow directive line Pass.allowedAt consumed.
	used := make(map[string]bool)
	var diags []Diagnostic
	var directives []allowDirective
	for _, pkg := range pkgs {
		allow := buildAllow(fset, pkg.Files)
		if checkStaleAllows {
			directives = append(directives, collectAllowDirectives(fset, pkg.Files)...)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
				allow:    allow,
				used:     used,
			}
			a.Run(pass)
		}
	}
	if checkStaleAllows {
		diags = append(diags, staleAllowDiags(directives, used, analyzers)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full analyzer suite in stable order: the four checks on
// the code, then pragma, which validates the //lint:allow directives.
func All() []*Analyzer {
	return []*Analyzer{
		FloatEquality(),
		UncheckedError(),
		WireEndianness(),
		PanicInLibrary(),
		Pragma(),
	}
}

// staleAllowDiags cross-checks every //lint:allow directive against the
// suppressions Pass.allowedAt actually consumed this run (used).
func staleAllowDiags(directives []allowDirective, used map[string]bool, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, d := range directives {
		for _, name := range d.Names {
			if !ran[name] || used[allowUseKey(d.File, d.Line, name)] {
				continue
			}
			out = append(out, Diagnostic{
				Pos:      token.Position{Filename: d.File, Line: d.Line, Column: d.Col},
				Analyzer: StaleAllowAnalyzer,
				Message: fmt.Sprintf(
					"//lint:allow %s suppresses nothing: the analyzer no longer fires on this line; remove the stale directive",
					name),
			})
		}
	}
	return out
}

// internalLibrary reports whether an import path is part of the module's
// internal library surface (where the stricter analyzers apply). Fixture
// packages used by the analyzer tests opt in via the "fixture/" prefix.
func internalLibrary(path string) bool {
	return strings.Contains(path, "/internal/") || strings.HasPrefix(path, "internal/") ||
		strings.HasPrefix(path, "fixture/")
}
