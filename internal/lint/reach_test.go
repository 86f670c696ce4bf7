package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachKeep lists the package-level declarations no root reaches that
// tests still use as fixtures, each with the test that needs it. An entry
// whose declaration is gone or has become reachable fails the test, so the
// list only shrinks.
var reachKeep = map[string]string{
	"internal/cluster.FaultCounts":      "TestChaosDeterministicSchedule",
	"internal/cluster.ChaosConn.Faults": "TestChaosCorruptionChangesBytesOnly",
	"internal/cluster.NewCounting":      "TestWireTCPPinsLinkToWorker",
	"internal/codec.SketchML.Options":   "TestByName",
	"internal/gradient.Sparse.Get":      "TestScatterZeros",
	"internal/gradient.Sparse.ToDense":  "TestDenseRoundTrip",
	"internal/optim.Adam.Steps":         "TestAdamMatchesReference",
}

// reachStdMethods are method names a standard-library caller selects
// through an interface (fmt.Stringer, error, http.Handler, io.Writer,
// io.Closer, and math/rand.Source's Seed, which rand.New requires and
// rand.Rand.Seed calls), so a type's method of that name runs without any
// call in the module naming it.
var reachStdMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Write": true, "Close": true,
	"Seed": true,
}

// TestEveryDeclarationIsReached fails on any package-level declaration
// outside bench/ that no root reaches. The roots are every package main
// (main in cmd/ and examples/; every declaration of bench/, which must keep
// compiling unedited) and the exports of the sketchml facade; init
// functions run wherever they are. A use reaches what it names. A method is
// also reached when an interface call selects it on a module type that
// implements that interface, or when its name is in reachStdMethods. Test
// files are not loaded, so a declaration only tests call is unreached.
func TestEveryDeclarationIsReached(t *testing.T) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	r := &reach{
		mod:      loader.ModulePath,
		decls:    make(map[types.Object]*reachDecl),
		methods:  make(map[string][]types.Object),
		seen:     make(map[types.Object]bool),
		selected: make(map[string]bool),
		dispatch: make(map[*types.Func]bool),
	}
	var roots []types.Object
	for _, pkg := range pkgs {
		roots = append(roots, r.index(pkg)...)
	}
	for name := range reachStdMethods {
		r.selectName(name)
	}
	for _, obj := range roots {
		r.mark(obj)
	}
	for len(r.queue) > 0 {
		obj := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.visit(r.decls[obj])
	}

	found := make(map[string]bool)
	var dead []*reachDecl
	for obj, d := range r.decls {
		if r.seen[obj] {
			continue
		}
		if _, ok := reachKeep[d.name]; ok {
			found[d.name] = true
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	for _, d := range dead {
		t.Errorf("%s: %s is reached from no root", loader.Fset().Position(d.pos), d.name)
	}
	for name, test := range reachKeep {
		if !found[name] {
			t.Errorf("keep-list entry %s (for %s) is gone or reachable; delete the entry", name, test)
		}
	}
}

// reachDecl is one package-level declaration: its syntax, whose identifier
// uses are the declarations it reaches, and its reported name.
type reachDecl struct {
	pkg  *Package
	node ast.Node
	name string // "internal/cluster.ChaosConn.Faults"
	pos  token.Pos
}

type reach struct {
	mod      string
	decls    map[types.Object]*reachDecl
	methods  map[string][]types.Object // module methods by name
	named    []*types.TypeName         // module type declarations
	seen     map[types.Object]bool
	selected map[string]bool      // reachStdMethods names already selected
	dispatch map[*types.Func]bool // interface methods a call already selects
	queue    []types.Object
}

// index records pkg's package-level declarations and returns its roots.
func (r *reach) index(pkg *Package) []types.Object {
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path, r.mod), "/")
	isMain := pkg.Types.Name() == "main"
	facade := pkg.Path == r.mod
	bench := rel == "bench"
	var roots []types.Object
	add := func(id *ast.Ident, node ast.Node, recv string) {
		obj := pkg.Info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		name := rel + "." + recv + id.Name
		r.decls[obj] = &reachDecl{pkg: pkg, node: node, name: name, pos: id.Pos()}
		if tn, ok := obj.(*types.TypeName); ok {
			r.named = append(r.named, tn)
		}
		if recv != "" {
			r.methods[id.Name] = append(r.methods[id.Name], obj)
		}
		if bench || (recv == "" && (id.Name == "init" || (isMain && id.Name == "main") ||
			(facade && id.IsExported()))) {
			roots = append(roots, obj)
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = recvTypeName(d.Recv.List[0].Type) + "."
				}
				add(d.Name, d, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, "")
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s, "")
						}
					}
				}
			}
		}
	}
	return roots
}

// recvTypeName names a method's receiver type, without pointer or type
// parameters.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// mark reaches obj, and the named type of a reached constant or variable,
// whose declaration need not spell the type (an iota run).
func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if _, ok := r.decls[obj]; !ok || r.seen[obj] {
		return
	}
	r.seen[obj] = true
	r.queue = append(r.queue, obj)
	if _, ok := obj.(*types.TypeName); !ok {
		if n, ok := obj.Type().(*types.Named); ok {
			r.mark(n.Obj())
		}
	}
}

// selectName records that a standard-library caller selects name: every
// module method of that name is reached.
func (r *reach) selectName(name string) {
	if r.selected[name] {
		return
	}
	r.selected[name] = true
	for _, m := range r.methods[name] {
		r.mark(m)
	}
}

// selectMethod records that an interface call selects fn, an interface
// method: on every module type whose pointer implements fn's interface, the
// method the call would dispatch to (declared or promoted) is reached.
func (r *reach) selectMethod(fn *types.Func) {
	if r.dispatch[fn] {
		return
	}
	r.dispatch[fn] = true
	iface := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	for _, tn := range r.named {
		if types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		if !types.Implements(ptr, iface) {
			continue
		}
		if sel := types.NewMethodSet(ptr).Lookup(fn.Pkg(), fn.Name()); sel != nil {
			r.mark(sel.Obj())
		}
	}
}

// visit reaches everything d's syntax uses.
func (r *reach) visit(d *reachDecl) {
	ast.Inspect(d.node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := d.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				r.selectMethod(fn)
			}
		}
		r.mark(obj)
		return true
	})
}
