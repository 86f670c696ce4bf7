package lint

import (
	"go/ast"
	"strings"
)

// Pragma validates the suite's own comment surface. A mistyped directive
// is worse than a missing one: //lint:allow flaot-equality suppresses
// nothing, and the finding it meant to excuse fails the gate with no hint
// why. The analyzer makes every //lint: comment that is not a well-formed
// //lint:allow — an unknown verb, no analyzer names, an unknown analyzer
// name, or a missing justification — a finding of its own.
//
// Grammar accepted (anything else is flagged):
//
//	//lint:allow name1[,name2...] reason...   — names must be analyzers
func Pragma() *Analyzer {
	a := &Analyzer{
		Name: "pragma",
		Doc: "//lint: directive that is not a well-formed //lint:allow: unknown " +
			"verb or analyzer name, no names, or no justification",
	}
	a.Run = func(pass *Pass) {
		known := knownAnalyzerNames()
		for _, f := range pass.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					// Block comments carry no directives.
					if rest, ok := strings.CutPrefix(c.Text, "//"); ok {
						if text := strings.TrimSpace(rest); strings.HasPrefix(text, "lint:") {
							checkAllowDirective(pass, c, text, known)
						}
					}
				}
			}
		}
	}
	return a
}

// knownAnalyzerNames is the set //lint:allow may name: every analyzer in
// the suite plus stale-allow, which has no Analyzer value.
func knownAnalyzerNames() map[string]bool {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	known[StaleAllowAnalyzer] = true
	return known
}

func checkAllowDirective(pass *Pass, c *ast.Comment, text string, known map[string]bool) {
	payload := strings.TrimPrefix(text, "lint:")
	names, ok := strings.CutPrefix(payload, "allow")
	if !ok || (names != "" && names[0] != ' ' && names[0] != '\t') {
		verb, _, _ := strings.Cut(payload, " ")
		pass.Reportf(c.Pos(),
			"unknown lint directive %q; only //lint:allow is recognized", "lint:"+verb)
		return
	}
	fields := strings.Fields(names)
	if len(fields) == 0 {
		pass.Reportf(c.Pos(), "//lint:allow names no analyzers; state what is being suppressed")
		return
	}
	for _, name := range strings.Split(fields[0], ",") {
		if name != "" && !known[name] {
			pass.Reportf(c.Pos(),
				"//lint:allow names unknown analyzer %q; it suppresses nothing", name)
		}
	}
	if len(fields) == 1 {
		pass.Reportf(c.Pos(),
			"//lint:allow without a justification; every suppression documents its reason")
	}
}
