package lint

import (
	"go/ast"
	"go/types"
)

// GoroutineJoin flags library goroutines launched with no join signal. A
// goroutine whose body neither completes a WaitGroup, sends on a channel,
// nor closes one has no way to report completion (or an error) to its
// spawner: the trainer would leak one such goroutine per round, and a
// failure inside it would vanish. Every `go` statement in internal/
// library code must either run a function literal containing a join
// signal, or name a same-package function whose body contains one.
// Spawns the analyzer cannot see into (cross-package calls, func values,
// method values) are flagged conservatively; an intentional fire-and-
// forget takes a //lint:allow comment.
//
// Recognized join signals inside the spawned body:
//   - (*sync.WaitGroup).Done — the wg.Wait join;
//   - a channel send statement — result/error fan-in;
//   - close(ch) — done-channel broadcast.
func GoroutineJoin() *Analyzer {
	a := &Analyzer{
		Name: "goroutine-join",
		Doc: "library goroutine launched without a WaitGroup/channel join " +
			"signal; its completion and errors are unobservable",
	}
	a.Run = func(pass *Pass) {
		if !internalLibrary(pass.Path) {
			return
		}
		decls := packageFuncDecls(pass)
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				switch fun := g.Call.Fun.(type) {
				case *ast.FuncLit:
					if !hasJoinSignal(pass, fun.Body) {
						pass.Reportf(g.Pos(),
							"goroutine body has no join signal (WaitGroup.Done, "+
								"channel send, or close); its exit is unobservable")
					}
				default:
					if obj := calledFunc(pass, g.Call); obj != nil {
						if decl, ok := decls[obj]; ok {
							if !hasJoinSignal(pass, decl.Body) {
								pass.Reportf(g.Pos(),
									"goroutine runs %s, which has no join signal "+
										"(WaitGroup.Done, channel send, or close)", obj.Name())
							}
							return true
						}
					}
					pass.Reportf(g.Pos(),
						"goroutine target is outside this package; cannot verify "+
							"a join signal — wrap the spawn in a literal that joins")
				}
				return true
			})
		}
	}
	return a
}

// packageFuncDecls maps the package's function objects to their
// declarations so spawned same-package functions can be inspected.
func packageFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fn.Name].(*types.Func); ok {
				out[obj] = fn
			}
		}
	}
	return out
}

// calledFunc resolves a call to the *types.Func it invokes, or nil.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := pass.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// hasJoinSignal reports whether a function body contains a recognized
// completion signal.
func hasJoinSignal(pass *Pass, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if s, ok := pass.Info.Selections[sel]; ok && typeName(s.Recv()) == "sync.WaitGroup" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
