package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// This file implements the interprocedural value-flow core under
// wire-taint and wire-determinism. The single-function analyzers miss
// exactly the bugs that cross a call boundary: a `make` sized by a length
// that flowed through two helpers, a timestamp that reaches wire bytes
// through an append helper. The core computes one FuncSummary per function
// — bottom-up over the strongly-connected components of a module-local
// call graph, with a bounded fixpoint inside each SCC so mutual recursion
// terminates — and the analyzers then consult summaries at call sites
// instead of giving up at them.
//
// The model is deliberately approximate (AST-level, flow-insensitive per
// variable, fields untracked, interface calls not followed); every
// approximation leans toward the convention of the rest of the suite:
// cheap to compute, wrong only in ways a //lint:allow comment can state.

// maxTrackedParams bounds the per-parameter flow bitmask.
const maxTrackedParams = 64

// maxSummarySites caps the per-function site lists, which keeps the SCC
// fixpoint bounded on pathological code.
const maxSummarySites = 16

// ParamFlow is a bitmask of the sinks a parameter's value reaches inside
// a function (directly or through its callees) without passing an
// ordering-comparison guard first.
type ParamFlow uint8

const (
	// FlowAllocSize: the parameter reaches the size operand of
	// make/slices.Grow/(*bytes.Buffer).Grow.
	FlowAllocSize ParamFlow = 1 << iota
	// FlowIndex: the parameter is used to index a slice or array.
	FlowIndex
	// FlowLoopBound: the parameter bounds a for loop (condition or
	// integer range).
	FlowLoopBound
	// FlowWireOut: the parameter's value is written into wire bytes (a
	// []byte store, append, binary.Put*, or a Send/Write sink).
	FlowWireOut
	// FlowReturn: the parameter's value flows into a return value.
	FlowReturn
)

// flowSinkMask selects the untrusted-input sinks wire-taint cares about.
const flowSinkMask = FlowAllocSize | FlowIndex | FlowLoopBound

// SiteRef is a resolved source position plus a short description of what
// was found there.
type SiteRef struct {
	File string
	Line int
	Col  int
	What string
}

// Position converts the ref back to a token.Position for reporting.
func (s SiteRef) Position() token.Position {
	return token.Position{Filename: s.File, Line: s.Line, Column: s.Col}
}

// FuncSummary is the per-function interprocedural fact set.
type FuncSummary struct {
	// Key is the types.Func full name, e.g.
	// "sketchml/internal/codec.(*SketchML).Encode".
	Key string
	// Pkg is the import path of the defining package.
	Pkg string
	// ReturnsWire: a return value derives from wire bytes (binary.*
	// reads or indexing a []byte parameter), so callers must treat it as
	// untrusted.
	ReturnsWire bool
	// Params holds one ParamFlow mask per declared parameter (receivers
	// excluded), in declaration order.
	Params []ParamFlow
	// NondetWire are sites where a nondeterministic value (time, rand,
	// GOMAXPROCS, map iteration order) is written to wire bytes, directly
	// or via a call (the site is then the call).
	NondetWire []SiteRef
	// NondetRet are nondeterminism sources whose value flows into a
	// return value.
	NondetRet []SiteRef
	// WireAllocSites are sites where a wire-derived local reaches an
	// untrusted-input sink without a prior bound check: an index or loop
	// bound, a call whose parameter reaches such a sink, or (in helpers
	// the v2 unbounded-wire-alloc analyzer does not cover) a direct
	// allocation size.
	WireAllocSites []SiteRef
}

// ModuleSummary is the summary table for every function of the loaded
// package set.
type ModuleSummary struct {
	Funcs map[string]*FuncSummary

	// used is the run's consumed-directive set; extraction adds to it.
	used map[string]bool
}

// shortFuncName strips the package path qualifier from a summary key:
// "(*sketchml/internal/codec.SketchML).Encode" -> "(*SketchML).Encode",
// "sketchml/internal/keycoding.AppendDelta" -> "AppendDelta".
func shortFuncName(key string) string {
	if rest, ok := strings.CutPrefix(key, "("); ok {
		if i := strings.Index(rest, ")."); i >= 0 {
			recv, method := rest[:i], rest[i+2:]
			star := strings.HasPrefix(recv, "*")
			recv = strings.TrimPrefix(recv, "*")
			if j := strings.LastIndex(recv, "."); j >= 0 {
				recv = recv[j+1:]
			}
			if star {
				return "(*" + recv + ")." + method
			}
			return recv + "." + method
		}
	}
	if i := strings.LastIndex(key, "/"); i >= 0 {
		key = key[i+1:]
	}
	if i := strings.Index(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

// funcKey returns the summary key for a declared function, or "".
func funcKey(info *types.Info, fn *ast.FuncDecl) string {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return ""
	}
	return obj.FullName()
}

// BuildSummaries computes the module summary table for pkgs. Every
// //lint:allow directive line extraction consumes is recorded in used
// (keyed by allowUseKey), next to the ones Pass.allowedAt records.
func BuildSummaries(fset *token.FileSet, pkgs []*Package, used map[string]bool) *ModuleSummary {
	mod := &ModuleSummary{Funcs: make(map[string]*FuncSummary), used: used}

	// Collect the functions to extract, with their static call edges (for
	// SCC ordering only; precise edges are re-derived during extraction).
	type fnInfo struct {
		key   string
		pkg   *Package
		fn    *ast.FuncDecl
		allow map[string]map[int]map[string]bool
		calls []string
	}
	fns := make(map[string]*fnInfo)
	var order []string // deterministic iteration
	for _, pkg := range pkgs {
		allow := buildAllow(fset, pkg.Files)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				key := funcKey(pkg.Info, fn)
				if key == "" {
					continue
				}
				fi := &fnInfo{key: key, pkg: pkg, fn: fn, allow: allow}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := calledFuncInfo(pkg.Info, call); callee != nil {
						fi.calls = append(fi.calls, callee.FullName())
					}
					return true
				})
				fns[key] = fi
				order = append(order, key)
			}
		}
	}
	sort.Strings(order)

	// Tarjan SCC over the functions (edges into external functions are
	// leaves: they have no summary and are not followed).
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(k string)
	strongconnect = func(k string) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true
		for _, c := range fns[k].calls {
			if fns[c] == nil {
				continue
			}
			if _, seen := index[c]; !seen {
				strongconnect(c)
				if low[c] < low[k] {
					low[k] = low[c]
				}
			} else if onStack[c] && index[c] < low[k] {
				low[k] = index[c]
			}
		}
		if low[k] == index[k] {
			var scc []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == k {
					break
				}
			}
			sccs = append(sccs, scc) // Tarjan emits in reverse topological order
		}
	}
	for _, k := range order {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}

	// Bottom-up extraction; bounded fixpoint inside each SCC so mutual
	// recursion terminates (flows are monotone bitsets and capped lists,
	// but the cap keeps the bound explicit regardless).
	for _, scc := range sccs {
		sort.Strings(scc)
		maxIter := 2*len(scc) + 2
		for iter := 0; iter < maxIter; iter++ {
			changed := false
			for _, k := range scc {
				fi := fns[k]
				s := extractSummary(fset, fi.pkg, fi.fn, fi.allow, mod)
				if !reflect.DeepEqual(mod.Funcs[k], s) {
					mod.Funcs[k] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return mod
}

// ---- extraction ----

// valueFlow is the abstract value of one local: which parameters it
// derives from, whether it derives from wire bytes, and which
// nondeterminism sources feed it.
type valueFlow struct {
	params    uint64
	untrusted bool // derived from wire bytes (binary reads, []byte param content)
	nondet    []SiteRef
}

func (v *valueFlow) empty() bool {
	return v == nil || (v.params == 0 && !v.untrusted && len(v.nondet) == 0)
}

func mergeFlow(a, b *valueFlow) *valueFlow {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &valueFlow{
		params:    a.params | b.params,
		untrusted: a.untrusted || b.untrusted,
	}
	out.nondet = appendSites(a.nondet, b.nondet...)
	return out
}

// appendSites appends with deduplication and the global cap.
func appendSites(dst []SiteRef, add ...SiteRef) []SiteRef {
	for _, s := range add {
		if len(dst) >= maxSummarySites {
			return dst
		}
		dup := false
		for _, d := range dst {
			if d == s {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, s)
		}
	}
	return dst
}

// extractor carries the state of one function's extraction.
type extractor struct {
	fset  *token.FileSet
	pkg   *Package
	mod   *ModuleSummary
	allow map[string]map[int]map[string]bool
	fn    *ast.FuncDecl
	sum   *FuncSummary

	flows      map[types.Object]*valueFlow
	guards     map[types.Object][]token.Pos
	laundered  map[types.Object]bool // passed to a sort: map-order taint cleared
	litReturns map[*ast.ReturnStmt]bool
}

// site builds a SiteRef at pos.
func (x *extractor) site(pos token.Pos, what string) SiteRef {
	p := x.fset.Position(pos)
	return SiteRef{File: p.Filename, Line: p.Line, Col: p.Column, What: what}
}

// allowedAtPos reports whether a //lint:allow comment for analyzer name
// covers pos, recording the consumed directive so the stale-suppression
// check sees extraction-time consumption.
func (x *extractor) allowedAtPos(pos token.Pos, name string) bool {
	return consumeAllow(x.allow, x.mod.used, x.fset.Position(pos), name)
}

// extractSummary computes one function's summary against the current
// module table (callees first in topological order; SCC members iterate).
func extractSummary(fset *token.FileSet, pkg *Package, fn *ast.FuncDecl, allow map[string]map[int]map[string]bool, mod *ModuleSummary) *FuncSummary {
	x := &extractor{
		fset:       fset,
		pkg:        pkg,
		mod:        mod,
		allow:      allow,
		fn:         fn,
		flows:      make(map[types.Object]*valueFlow),
		guards:     make(map[types.Object][]token.Pos),
		laundered:  make(map[types.Object]bool),
		litReturns: make(map[*ast.ReturnStmt]bool),
	}
	x.sum = &FuncSummary{Key: funcKey(pkg.Info, fn), Pkg: pkg.Path}

	// Seed parameter flows.
	if fn.Type.Params != nil {
		i := 0
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if i >= maxTrackedParams {
					break
				}
				if obj := pkg.Info.Defs[name]; obj != nil {
					x.flows[obj] = &valueFlow{params: 1 << uint(i)}
				}
				i++
			}
			if len(field.Names) == 0 {
				i++ // unnamed parameter still occupies a slot
			}
		}
		x.sum.Params = make([]ParamFlow, i)
	}

	x.collectStructure()
	x.propagateFlows()
	x.collectFacts()
	return x.sum
}

// collectStructure gathers guards, for-condition positions, returns inside
// function literals, and sort-laundered slices.
func (x *extractor) collectStructure() {
	info := x.pkg.Info

	// Comparisons inside for-loop conditions are loop bounds, not guards.
	inForCond := make(map[ast.Node]bool)
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond != nil {
			ast.Inspect(f.Cond, func(c ast.Node) bool {
				inForCond[c] = true
				return true
			})
		}
		return true
	})

	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if inForCond[n] {
				return true
			}
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				for _, obj := range identVars(info, n) {
					x.guards[obj] = append(x.guards[obj], n.Pos())
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if r, ok := m.(*ast.ReturnStmt); ok {
					x.litReturns[r] = true
				}
				return true
			})
		case *ast.CallExpr:
			// sort.X(s) / slices.SortX(s): iteration-order taint on s is
			// laundered — the slice's final order no longer depends on the
			// order elements arrived in.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if qual, ok := sel.X.(*ast.Ident); ok {
					pkgPath := pkgNameOf(info, qual)
					if (pkgPath == "sort" || pkgPath == "slices") && len(n.Args) > 0 {
						if id := rootIdent(n.Args[0]); id != nil {
							if obj := info.Uses[id]; obj != nil {
								x.laundered[obj] = true
							}
						}
					}
				}
			}
		}
		return true
	})
}

// guardedAt reports whether obj passed an ordering comparison strictly
// before pos.
func (x *extractor) guardedAt(obj types.Object, pos token.Pos) bool {
	for _, g := range x.guards[obj] {
		if g < pos {
			return true
		}
	}
	return false
}

// exprFlow resolves the abstract value of an expression as used at its own
// position: guards that fired earlier clear the untrusted/param bits, and
// sort calls clear map-order entries.
func (x *extractor) exprFlow(e ast.Expr) *valueFlow {
	info := x.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			return nil
		}
		f := x.flows[obj]
		if f == nil {
			return nil
		}
		out := &valueFlow{params: f.params, untrusted: f.untrusted, nondet: f.nondet}
		if x.guardedAt(obj, e.Pos()) {
			out.params = 0
			out.untrusted = false
		}
		if x.laundered[obj] {
			var kept []SiteRef
			for _, s := range out.nondet {
				if !strings.HasPrefix(s.What, "map iteration") {
					kept = append(kept, s)
				}
			}
			out.nondet = kept
		}
		if out.empty() {
			return nil
		}
		return out
	case *ast.ParenExpr:
		return x.exprFlow(e.X)
	case *ast.StarExpr:
		return x.exprFlow(e.X)
	case *ast.UnaryExpr:
		return x.exprFlow(e.X)
	case *ast.BinaryExpr:
		return mergeFlow(x.exprFlow(e.X), x.exprFlow(e.Y))
	case *ast.IndexExpr:
		f := x.exprFlow(e.X)
		if isByteSlice(info, e.X) {
			f = mergeFlow(f, &valueFlow{untrusted: true})
		}
		return f
	case *ast.SliceExpr:
		return x.exprFlow(e.X)
	case *ast.TypeAssertExpr:
		return x.exprFlow(e.X)
	case *ast.CompositeLit:
		var f *valueFlow
		for _, el := range e.Elts {
			f = mergeFlow(f, x.exprFlow(el))
		}
		return f
	case *ast.KeyValueExpr:
		return x.exprFlow(e.Value)
	case *ast.CallExpr:
		return x.callFlow(e)
	}
	return nil
}

// callFlow models the result of a call.
func (x *extractor) callFlow(call *ast.CallExpr) *valueFlow {
	info := x.pkg.Info

	// Builtins and conversions.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "make", "new":
				return nil // results are bounded / fresh memory
			case "append":
				var f *valueFlow
				for _, a := range call.Args {
					f = mergeFlow(f, x.exprFlow(a))
				}
				return f
			default:
				return nil
			}
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return x.exprFlow(call.Args[0]) // conversion preserves provenance
	}

	// Wire reads: binary.LittleEndian.Uint32(...) and friends.
	if isBinaryRead(info, call) {
		return &valueFlow{untrusted: true}
	}
	// Nondeterminism sources.
	if what := nondetSource(info, call); what != "" {
		return &valueFlow{nondet: []SiteRef{x.site(call.Pos(), what)}}
	}

	// Module-internal callee with a summary: compose precisely.
	if callee := calledFuncInfo(info, call); callee != nil {
		if s := x.mod.Funcs[callee.FullName()]; s != nil {
			return x.summaryCallFlow(call, callee, s)
		}
	}

	// Unknown callee (stdlib, interface method, closure): assume the
	// result derives from the operands, receiver included, so taint and
	// nondeterminism survive pure-function plumbing like
	// time.Now().UnixNano() or math.Float64frombits(bits).
	var f *valueFlow
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		f = mergeFlow(f, x.exprFlow(sel.X))
	}
	for _, a := range call.Args {
		f = mergeFlow(f, x.exprFlow(a))
	}
	return f
}

// summaryCallFlow models a call through the callee's summary.
func (x *extractor) summaryCallFlow(call *ast.CallExpr, callee *types.Func, s *FuncSummary) *valueFlow {
	var f *valueFlow
	if s.ReturnsWire {
		f = mergeFlow(f, &valueFlow{untrusted: true})
	}
	if len(s.NondetRet) > 0 {
		f = mergeFlow(f, &valueFlow{nondet: s.NondetRet})
	}
	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		j := paramIndexFor(sig, i)
		if j < 0 || j >= len(s.Params) {
			continue
		}
		if s.Params[j]&FlowReturn != 0 {
			f = mergeFlow(f, x.exprFlow(arg))
		}
	}
	return f
}

// paramIndexFor maps argument position i to the callee's parameter index,
// folding variadic tails onto the last parameter. Returns -1 when the
// signature cannot absorb the argument.
func paramIndexFor(sig *types.Signature, i int) int {
	if sig == nil {
		return -1
	}
	n := sig.Params().Len()
	if n == 0 {
		return -1
	}
	if i < n {
		return i
	}
	if sig.Variadic() {
		return n - 1
	}
	return -1
}

// propagateFlows runs the forward assignment pass in source order.
func (x *extractor) propagateFlows() {
	info := x.pkg.Info
	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil {
					continue
				}
				f := x.exprFlow(rhs)
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
					if f == nil {
						delete(x.flows, obj)
					} else {
						x.flows[obj] = f
					}
				} else if f != nil { // compound (+=, |=, ...): merge
					x.flows[obj] = mergeFlow(x.flows[obj], f)
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						if f := x.exprFlow(vs.Values[i]); f != nil {
							if obj := info.Defs[name]; obj != nil {
								x.flows[obj] = f
							}
						}
					}
				}
			}
		case *ast.RangeStmt:
			f := x.exprFlow(n.X)
			isMap := false
			isInt := false
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				switch u := tv.Type.Underlying().(type) {
				case *types.Map:
					isMap = true
					f = mergeFlow(f, &valueFlow{nondet: []SiteRef{x.site(n.Pos(), "map iteration order")}})
				case *types.Basic:
					isInt = u.Info()&types.IsInteger != 0
				}
			}
			if f == nil {
				return true
			}
			// The key inherits provenance only when it is data (map keys)
			// or the ranged value itself (range over an integer). A slice
			// or array index is 0..len-1 — bounded by construction, never
			// tainted by the elements.
			targets := []ast.Expr{n.Value}
			if isMap || isInt {
				targets = append(targets, n.Key)
			}
			for _, e := range targets {
				if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
					if obj := info.Defs[id]; obj != nil {
						x.flows[obj] = f
					} else if obj := info.Uses[id]; obj != nil {
						x.flows[obj] = mergeFlow(x.flows[obj], f)
					}
				}
			}
		}
		return true
	})
}

// collectFacts is the sink pass: untrusted-input sinks, wire writes,
// summary composition at calls, and returns.
func (x *extractor) collectFacts() {
	info := x.pkg.Info

	ast.Inspect(x.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			x.factsForCall(n)
		case *ast.IndexExpr:
			// Untrusted index into a slice or array.
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Array, *types.Pointer:
					x.noteUntrustedSink(n.Index, n.Index.Pos(), "index", "used as an index with no prior bound check")
				}
			}
		case *ast.ForStmt:
			if n.Cond != nil {
				x.noteUntrustedSink(n.Cond, n.Cond.Pos(), "loop bound", "bounds a loop with no prior check")
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					x.noteUntrustedSink(n.X, n.X.Pos(), "loop bound", "bounds an integer range with no prior check")
				}
			}
		case *ast.AssignStmt:
			// Wire write: store into an element of a []byte.
			for i, lhs := range n.Lhs {
				idx, ok := lhs.(*ast.IndexExpr)
				if !ok || !isByteSlice(info, idx.X) {
					continue
				}
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil {
					x.noteWireWrite(rhs, n.Pos())
				}
			}
		case *ast.ReturnStmt:
			if x.litReturns[n] {
				return true
			}
			for _, res := range n.Results {
				f := x.exprFlow(res)
				if f == nil {
					continue
				}
				x.markParams(f.params, FlowReturn)
				if f.untrusted {
					x.sum.ReturnsWire = true
				}
				if len(f.nondet) > 0 {
					x.sum.NondetRet = appendSites(x.sum.NondetRet, f.nondet...)
				}
			}
		}
		return true
	})
}

// markParams sets flag on every parameter in the bit set.
func (x *extractor) markParams(bits uint64, flag ParamFlow) {
	for i := range x.sum.Params {
		if bits&(1<<uint(i)) != 0 {
			x.sum.Params[i] |= flag
		}
	}
}

// noteUntrustedSink inspects an expression used as a sink (index, loop
// bound, alloc size): parameter flows set ParamFlow bits; wire-derived
// local flows record a WireAllocSite.
func (x *extractor) noteUntrustedSink(e ast.Expr, pos token.Pos, kind, msg string) {
	if x.allowedAtPos(pos, "wire-taint") {
		return
	}
	var flag ParamFlow
	switch kind {
	case "alloc size":
		flag = FlowAllocSize
	case "index":
		flag = FlowIndex
	case "loop bound":
		flag = FlowLoopBound
	}
	f := x.exprFlow(e)
	if f == nil {
		return
	}
	x.markParams(f.params, flag)
	if f.untrusted {
		x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
			x.site(pos, fmt.Sprintf("wire-derived %s %s", x.untrustedVarName(e), msg)))
	}
}

// untrustedVarName names the first variable in e whose own flow is
// wire-derived — the one the message should blame — falling back to the
// first variable mentioned.
func (x *extractor) untrustedVarName(e ast.Expr) string {
	vars := identVars(x.pkg.Info, e)
	for _, v := range vars {
		if f := x.flows[v]; f != nil && f.untrusted && !x.guardedAt(v, e.Pos()) {
			return v.Name()
		}
	}
	if len(vars) > 0 {
		return vars[0].Name()
	}
	return "value"
}

// noteWireWrite records nondeterministic values reaching a wire write and
// parameters written to the wire.
func (x *extractor) noteWireWrite(e ast.Expr, pos token.Pos) {
	f := x.exprFlow(e)
	if f == nil {
		return
	}
	x.markParams(f.params, FlowWireOut)
	if len(f.nondet) > 0 && !x.allowedAtPos(pos, "wire-determinism") {
		for _, src := range f.nondet {
			x.sum.NondetWire = appendSites(x.sum.NondetWire,
				x.site(pos, fmt.Sprintf("%s value (from %s:%d) written to wire bytes", src.What, shortFile(src.File), src.Line)))
		}
	}
}

// factsForCall handles alloc-size sinks, wire-write sinks, and summary
// composition at one call site.
func (x *extractor) factsForCall(call *ast.CallExpr) {
	info := x.pkg.Info

	// make's size sinks and append's wire writes.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				for _, arg := range call.Args[1:] {
					x.noteSizeSink(arg)
				}
			case "append":
				if len(call.Args) > 1 && isByteSlice(info, call.Args[0]) {
					for _, arg := range call.Args[1:] {
						x.noteWireWrite(arg, arg.Pos())
					}
				}
			}
			return
		}
	}

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // a conversion: no sink, no callee
	}

	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		// slices.Grow(s, n).
		if qual, ok := sel.X.(*ast.Ident); ok &&
			pkgNameOf(info, qual) == "slices" && sel.Sel.Name == "Grow" && len(call.Args) == 2 {
			x.noteSizeSink(call.Args[1])
		}
		// (*bytes.Buffer).Grow(n) and friends.
		if _, ok := info.Selections[sel]; ok && sel.Sel.Name == "Grow" && len(call.Args) == 1 {
			x.noteSizeSink(call.Args[0])
		}
		// binary.LittleEndian.PutUint32(b, v) / AppendUint64 / binary.Write.
		if isBinaryPut(info, call) && len(call.Args) >= 2 {
			x.noteWireWrite(call.Args[len(call.Args)-1], call.Pos())
		}
		// Conn.Send(b) / w.Write(b): single-[]byte wire sinks.
		if (sel.Sel.Name == "Send" || sel.Sel.Name == "Write") && len(call.Args) == 1 && isByteSlice(info, call.Args[0]) {
			x.noteWireWrite(call.Args[0], call.Pos())
		}
	}

	// Module-internal callee: compose summaries.
	callee := calledFuncInfo(info, call)
	if callee == nil {
		return
	}
	key := callee.FullName()
	s := x.mod.Funcs[key]
	if s == nil {
		return // external or bodyless: not followed
	}
	// Inherit wire-write and untrusted-sink behavior through the call —
	// except when the callee is itself a reporting entry point (an
	// encode/decode-named function of a wire package): its findings are
	// reported at its own sites, and re-reporting them at every caller up
	// the chain would bury one root cause under N duplicates.
	if len(s.NondetWire) > 0 && !x.allowedAtPos(call.Pos(), "wire-determinism") &&
		!(isAllocPackage(s.Pkg) && isEncodeFunc(callee.Name())) {
		x.sum.NondetWire = appendSites(x.sum.NondetWire,
			x.site(call.Pos(), fmt.Sprintf("call to %s, which writes %s", shortFuncName(key), s.NondetWire[0].What)))
	}
	if len(s.WireAllocSites) > 0 && !x.allowedAtPos(call.Pos(), "wire-taint") &&
		!(isAllocPackage(s.Pkg) && isDecodeFunc(callee.Name())) {
		x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
			x.site(call.Pos(), fmt.Sprintf("call to %s: %s", shortFuncName(key), s.WireAllocSites[0].What)))
	}

	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		j := paramIndexFor(sig, i)
		if j < 0 || j >= len(s.Params) {
			continue
		}
		pf := s.Params[j]
		f := x.exprFlow(arg)
		if f == nil {
			continue
		}
		// Untrusted sinks through the callee's parameters.
		if pf&flowSinkMask != 0 {
			x.markParams(f.params, pf&flowSinkMask)
			if f.untrusted && !x.allowedAtPos(call.Pos(), "wire-taint") {
				x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
					x.site(arg.Pos(), fmt.Sprintf("wire-derived %s passed to %s, where it reaches %s with no bound check",
						x.untrustedVarName(arg), shortFuncName(key), describeSinks(pf))))
			}
		}
		// Wire-write sinks through the callee's parameters.
		if pf&FlowWireOut != 0 {
			x.markParams(f.params, FlowWireOut)
			if len(f.nondet) > 0 && !x.allowedAtPos(call.Pos(), "wire-determinism") {
				x.sum.NondetWire = appendSites(x.sum.NondetWire,
					x.site(arg.Pos(), fmt.Sprintf("%s value passed to %s, which writes it to wire bytes",
						f.nondet[0].What, shortFuncName(key))))
			}
		}
	}
}

// noteSizeSink handles one allocation-size operand.
func (x *extractor) noteSizeSink(arg ast.Expr) {
	// Parameter flows always matter; wire-derived locals are recorded only
	// when the v2 unbounded-wire-alloc analyzer does not already own the
	// site (it covers decode-named functions in wire packages).
	if x.allowedAtPos(arg.Pos(), "wire-taint") {
		return
	}
	f := x.exprFlow(arg)
	if f == nil {
		return
	}
	x.markParams(f.params, FlowAllocSize)
	if f.untrusted && !isDecodeFunc(x.fn.Name.Name) {
		x.sum.WireAllocSites = appendSites(x.sum.WireAllocSites,
			x.site(arg.Pos(), fmt.Sprintf("wire-derived %s used as an allocation size with no prior bound check",
				x.untrustedVarName(arg))))
	}
}

func describeSinks(pf ParamFlow) string {
	var parts []string
	if pf&FlowAllocSize != 0 {
		parts = append(parts, "an allocation size")
	}
	if pf&FlowIndex != 0 {
		parts = append(parts, "an index")
	}
	if pf&FlowLoopBound != 0 {
		parts = append(parts, "a loop bound")
	}
	return strings.Join(parts, " and ")
}

// ---- shared expression helpers ----

// identVars collects the variable objects an expression mentions, skipping
// len/cap interiors (bounded by definition).
func identVars(info *types.Info, e ast.Expr) []types.Object {
	var out []types.Object
	seen := make(map[types.Object]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					return false
				}
			}
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		seen[obj] = true
		out = append(out, obj)
		return true
	})
	return out
}

// pkgNameOf resolves an identifier naming an import to its package path.
func pkgNameOf(info *types.Info, ident *ast.Ident) string {
	if obj, ok := info.Uses[ident].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

func shortFile(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isByteSlice reports whether e's type is []byte.
func isByteSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// isBinaryRead matches binary.LittleEndian.UintXX(...) / BigEndian reads.
func isBinaryRead(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Uint") {
		return false
	}
	return isBinaryOrderExpr(info, sel.X)
}

// isBinaryPut matches binary.LittleEndian.PutUintXX / AppendUintXX and
// binary.Write.
func isBinaryPut(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if qual, ok := sel.X.(*ast.Ident); ok &&
		pkgNameOf(info, qual) == "encoding/binary" && sel.Sel.Name == "Write" {
		return true
	}
	if !strings.HasPrefix(sel.Sel.Name, "PutUint") && !strings.HasPrefix(sel.Sel.Name, "AppendUint") {
		return false
	}
	return isBinaryOrderExpr(info, sel.X)
}

// isBinaryOrderExpr matches binary.LittleEndian / binary.BigEndian /
// values of type binary.ByteOrder.
func isBinaryOrderExpr(info *types.Info, e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if qual, ok := sel.X.(*ast.Ident); ok && pkgNameOf(info, qual) == "encoding/binary" {
			return true
		}
	}
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if named, ok := tv.Type.(*types.Named); ok {
			if p := named.Obj().Pkg(); p != nil && p.Path() == "encoding/binary" {
				return true
			}
		}
	}
	return false
}

// nondetSource classifies calls whose results differ run to run: the
// compile-time complement of the golden-vector perturbation tests.
func nondetSource(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	switch pkgNameOf(info, qual) {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			return "time." + sel.Sel.Name
		}
	case "math/rand", "math/rand/v2":
		return "math/rand." + sel.Sel.Name
	case "runtime":
		switch sel.Sel.Name {
		case "GOMAXPROCS", "NumCPU", "NumGoroutine":
			return "runtime." + sel.Sel.Name
		}
	}
	return ""
}

// calledFuncInfo resolves a call to the *types.Func it statically invokes,
// or nil (closures, interface methods, builtins).
func calledFuncInfo(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		// An interface method has no body to summarize; report only
		// concrete functions and methods.
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv().Underlying()) {
				return nil
			}
		}
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
