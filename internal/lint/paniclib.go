package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicInLibrary flags raw panic calls in the internal/ library packages.
// The trainer and parameter server run library code on goroutine hot
// paths; an unrecovered panic there takes down the whole worker, so
// deliberate programmer-error panics must be routed through the
// internal/invariant helpers (or live in a Must*-named convenience
// wrapper), where they are greppable and centrally replaceable. Everything
// reachable from network input must return errors instead — the codec
// fuzz targets enforce the decode side of that contract.
//
// Allowed panic sites:
//   - functions named Must*/must* (the standard "panic on bad literal
//     config" convenience wrappers);
//   - functions named Assert*/assert*/Fail*/fail* (invariant helpers —
//     internal/invariant is the canonical home);
//   - init functions.
func PanicInLibrary() *Analyzer {
	a := &Analyzer{
		Name: "panic-in-library",
		Doc: "raw panic in internal/ library code; route invariant failures " +
			"through internal/invariant or a Must* wrapper",
	}
	a.Run = func(pass *Pass) {
		if !internalLibrary(pass.Path) {
			return
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if panicAllowedIn(fn.Name.Name) {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					ident, ok := call.Fun.(*ast.Ident)
					if !ok || ident.Name != "panic" {
						return true
					}
					// Only the builtin counts; a local func named panic
					// (however ill-advised) is not this analyzer's business.
					if obj, ok := pass.Info.Uses[ident]; ok {
						if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
							return true
						}
					}
					pass.Reportf(call.Pos(),
						"panic in library function %s; use invariant.Fail/Failf "+
							"for programmer errors or return an error", fn.Name.Name)
					return true
				})
			}
		}
	}
	return a
}

// panicAllowedIn reports whether a function name marks an allowlisted
// invariant helper or Must-wrapper.
func panicAllowedIn(name string) bool {
	for _, prefix := range []string{"Must", "must", "Assert", "assert", "Fail", "fail"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return name == "init"
}
