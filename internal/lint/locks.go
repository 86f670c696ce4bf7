package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds lock-held-io's positional mutex-window model. The model
// is lexical: a hold window runs from x.Lock() to the first non-deferred
// matching x.Unlock() statement after it, else to the end of the enclosing
// lock scope (deferred unlock, or lock handed off).

// lockEvent is one Lock/Unlock statement inside a lock scope.
type lockEvent struct {
	recv     string // canonical receiver expression, e.g. "t.sendMu"
	pos      token.Pos
	unlock   bool
	deferred bool
}

// lockScope is one lexical function body — the declared body or a function
// literal's — with the Lock/Unlock events positioned directly inside it.
// Windows never cross a scope boundary: a literal may run on another
// goroutine (or after the outer frame has returned), so a mutex held at the
// literal's definition site says nothing about the locks held when its body
// actually runs.
type lockScope struct {
	body   *ast.BlockStmt
	events []lockEvent
}

// collectLockScopes builds the scope list for fn: its body plus every
// function literal body, each excluding deeper literals.
func collectLockScopes(info *types.Info, fn *ast.FuncDecl) []lockScope {
	bodies := []*ast.BlockStmt{fn.Body}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	scopes := make([]lockScope, 0, len(bodies))
	for _, b := range bodies {
		scopes = append(scopes, lockScope{body: b, events: collectLockEvents(info, b)})
	}
	return scopes
}

// collectLockEvents gathers the Lock/Unlock statements directly inside body,
// not descending into nested function literals (each is its own scope).
func collectLockEvents(info *types.Info, body *ast.BlockStmt) []lockEvent {
	var events []lockEvent
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var call *ast.CallExpr
		deferred := false
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call, deferred = s.Call, true
		}
		if call == nil {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		isLock := name == "Lock" || name == "RLock"
		isUnlock := name == "Unlock" || name == "RUnlock"
		if !isLock && !isUnlock {
			return true
		}
		s, ok := info.Selections[sel]
		if !ok {
			return true
		}
		if tn := typeName(s.Recv()); tn != "sync.Mutex" && tn != "sync.RWMutex" {
			return true
		}
		events = append(events, lockEvent{
			recv:     types.ExprString(sel.X),
			pos:      call.Pos(),
			unlock:   isUnlock,
			deferred: deferred,
		})
		return true
	})
	return events
}

// windowEnd is the positional end of a hold window: the first non-deferred
// matching unlock after the lock, else the scope end.
func (sc *lockScope) windowEnd(lock lockEvent) token.Pos {
	end := sc.body.End()
	for _, u := range sc.events {
		if u.unlock && !u.deferred && u.recv == lock.recv && u.pos > lock.pos && u.pos < end {
			end = u.pos
		}
	}
	return end
}
