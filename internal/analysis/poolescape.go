package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscapeAnalyzer reports pooled scratch objects escaping their borrow
// scope. A value obtained from a recycler — mem.Pool.Get or sync.Pool.Get —
// is only borrowed: after the matching Put, the object is handed to the
// next caller, so any reference that outlives the function turns into
// silent shared-mutable state. The analyzer taints Get results
// (and everything reachable from them through assignments, slicing, field
// and index selection, and growing appends) within each function and flags:
//
//   - returning a tainted value;
//   - storing a tainted value into a package-level variable;
//   - storing a tainted value into state reachable from a parameter or the
//     receiver (a caller-visible escape).
//
// Defensive copies sanitize: a fresh-backing append (append([]T(nil), x...)
// or append([]T{}, x...)), a string(x) conversion, or copying into a
// separately made buffer all produce untainted values. Stores into the
// pooled object itself (sc.buf = ...) are the normal scratch discipline and
// stay silent, as do the Get methods of the pool implementations themselves.
var PoolEscapeAnalyzer = &Analyzer{
	Name: "poolescape",
	Doc:  "report pooled buffers escaping via return or caller-visible store without a defensive copy",
	Run:  runPoolEscape,
}

func runPoolEscape(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || isPoolImplGet(pass.Info, fn) {
				continue
			}
			pe := &poolEscape{pass: pass, tainted: map[types.Object]bool{}}
			pe.collectBoundary(fn)
			pe.walk(fn.Body)
		}
	}
	return nil
}

// isPoolImplGet reports whether fn is the Get method of a recycler type
// itself (mem.Pool): the implementation legitimately returns
// the recycled object — that hand-off is the API.
func isPoolImplGet(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || fn.Name.Name != "Get" || len(fn.Recv.List) != 1 {
		return false
	}
	return isRecyclerType(info.TypeOf(fn.Recv.List[0].Type))
}

// isRecyclerType reports whether t (possibly behind a pointer) is a named
// type Pool from a package named mem or sync.
func isRecyclerType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	name, pkg := obj.Name(), obj.Pkg().Name()
	return name == "Pool" && (pkg == "mem" || pkg == "sync")
}

// poolEscape is the per-function taint state.
type poolEscape struct {
	pass    *Pass
	tainted map[types.Object]bool
	// boundary holds the function's parameters and receiver: storing a
	// pooled buffer into state rooted at one of these escapes to the caller.
	boundary map[types.Object]bool
}

// collectBoundary records the receiver and parameter objects.
func (pe *poolEscape) collectBoundary(fn *ast.FuncDecl) {
	pe.boundary = map[types.Object]bool{}
	record := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pe.pass.Info.Defs[name]; obj != nil {
					pe.boundary[obj] = true
				}
			}
		}
	}
	record(fn.Recv)
	record(fn.Type.Params)
}

// walk scans the body in source order, updating taint at assignments and
// reporting escapes at returns and stores. Nested function literals are
// walked in the same scope: closures share the function's locals.
func (pe *poolEscape) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			pe.assign(node)
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if pe.taintedExpr(res) {
					pe.pass.Reportf(res.Pos(),
						"pooled buffer %s is returned; it is recycled after Put — return a defensive copy (append([]T(nil), x...), string(x), or make+copy)", exprName(res))
				}
			}
		case *ast.GenDecl:
			pe.varDecl(node)
		}
		return true
	})
}

// varDecl taints variables initialized from tainted expressions in
// `var x = ...` declarations.
func (pe *poolEscape) varDecl(decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) != len(vs.Names) {
			continue
		}
		for i, name := range vs.Names {
			if pe.taintedExpr(vs.Values[i]) {
				if obj := pe.pass.Info.Defs[name]; obj != nil {
					pe.taintObj(obj, name.Pos(), name.Name)
				}
			}
		}
	}
}

// assign propagates taint through assignments and reports caller-visible
// stores. Only 1:1 value positions are considered: multi-value calls return
// fresh (untainted) results.
func (pe *poolEscape) assign(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		rhs := st.Rhs[i]
		if !pe.taintedExpr(rhs) {
			// A fresh right-hand side overwrites (untaints) a plain local.
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := pe.pass.Info.ObjectOf(id); obj != nil {
					delete(pe.tainted, obj)
				}
			}
			continue
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			obj := pe.pass.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			pe.taintObj(obj, id.Pos(), id.Name)
			continue
		}
		// Store through a selector/index path: silent into the pooled
		// object itself or another tainted local; an escape when the root
		// is a global, a parameter, or the receiver.
		root := lhsRoot(lhs)
		if root == nil {
			continue
		}
		obj := pe.pass.Info.ObjectOf(root)
		if obj == nil || pe.tainted[obj] {
			continue
		}
		switch {
		case isPackageLevel(obj):
			pe.pass.Reportf(lhs.Pos(),
				"pooled buffer %s is stored in package-level state rooted at %s; it is recycled after Put — store a defensive copy", exprName(rhs), root.Name)
		case pe.boundary[obj]:
			pe.pass.Reportf(lhs.Pos(),
				"pooled buffer %s is stored into caller-visible state rooted at parameter %s; it is recycled after Put — store a defensive copy", exprName(rhs), root.Name)
		}
	}
}

// taintObj taints a variable, reporting immediately when the variable is
// itself package-level (the store already escaped).
func (pe *poolEscape) taintObj(obj types.Object, pos token.Pos, name string) {
	if isPackageLevel(obj) {
		pe.pass.Reportf(pos,
			"pooled buffer is stored in package-level variable %s; it is recycled after Put — store a defensive copy", name)
		return
	}
	pe.tainted[obj] = true
}

// taintedExpr reports whether the expression denotes (or aliases) a pooled
// object: a Get call, a tainted variable, or any selection, indexing,
// slicing, dereference, address-of, type assertion, or growing append
// rooted at one.
func (pe *poolEscape) taintedExpr(expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.CallExpr:
		if isRecyclerGet(pe.pass.Info, e) {
			return true
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			// append keeps the first argument's backing array unless it is
			// fresh; append([]T(nil), x...) / append([]T{}, x...) sanitize.
			return !isFreshSliceExpr(e.Args[0]) && pe.taintedExpr(e.Args[0])
		}
		// Conversions (string(x), []byte(x) of a string) and ordinary call
		// results are fresh values.
		return false
	case *ast.UnaryExpr:
		return pe.taintedExpr(e.X)
	case *ast.Ident:
		obj := pe.pass.Info.ObjectOf(e)
		return obj != nil && pe.tainted[obj]
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr, *ast.TypeAssertExpr:
		root := lhsRoot(expr)
		if root == nil {
			// The root may be a call, e.g. pool.Get().buf — unwrap one level.
			switch x := expr.(type) {
			case *ast.SelectorExpr:
				return pe.taintedExpr(x.X)
			case *ast.IndexExpr:
				return pe.taintedExpr(x.X)
			case *ast.SliceExpr:
				return pe.taintedExpr(x.X)
			case *ast.StarExpr:
				return pe.taintedExpr(x.X)
			case *ast.TypeAssertExpr:
				return pe.taintedExpr(x.X)
			}
			return false
		}
		obj := pe.pass.Info.ObjectOf(root)
		return obj != nil && pe.tainted[obj]
	}
	return false
}

// isRecyclerGet reports whether call is a zero-argument Get on a mem.Pool
// or sync.Pool value.
func isRecyclerGet(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Get" || len(call.Args) != 0 {
		return false
	}
	return isRecyclerType(info.TypeOf(sel.X))
}

// isFreshSliceExpr reports whether expr builds a slice with fresh (empty)
// backing: a []T{...} literal or a []T(nil) conversion.
func isFreshSliceExpr(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr: // []T(nil)
		if len(e.Args) != 1 {
			return false
		}
		if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
			_, isSliceType := e.Fun.(*ast.ArrayType)
			return isSliceType
		}
	}
	return false
}

// isPackageLevel reports whether obj is a package-level variable.
func isPackageLevel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// exprName renders a short name for diagnostics: the root identifier when
// there is one.
func exprName(expr ast.Expr) string {
	if root := lhsRoot(expr); root != nil {
		return root.Name
	}
	return "value"
}
