package analysis

import (
	"go/ast"
	"go/types"
)

// pmemPkgPath is the simulated-device package whose accessors carry the
// latency model and line accounting.
const pmemPkgPath = "learnedpieces/internal/pmem"

// PMemDiscipline keeps every PMem byte behind the pmem.Region accessors.
// The zero-copy view ReadNoCopy hands out is a *read-only borrow*: a
// caller outside internal/pmem may decode it and pass it along, but must
// never write through it (that write would bypass the latency model and
// the device's line accounting) and must never park it in a struct field
// or package variable (a retained alias turns later "device reads" into
// free DRAM reads, silently corrupting AccessStats and every figure
// derived from it). The dst a WriteFill (a Region's or a Round's) hands
// its fill literal is the write-side borrow: the fill formats through it,
// but must not park it either, or a later write through it would be a
// free, unbilled one.
//
// The analyzer tracks, per function, the local variables that alias a
// ReadNoCopy result or a fill literal's dst (including re-slicings) and
// reports
//
//   - writes through a ReadNoCopy alias: v[i] = x, copy(v, ...)
//   - retention of either alias in a struct field or package-level variable
//
// Returning a view to the caller remains legal — that is the store's
// documented "valid until the next mutation, do not modify" contract.
var PMemDiscipline = &Analyzer{
	Name: "pmem-discipline",
	Doc:  "PMem bytes stay behind Region accessors: no writes through zero-copy views, no retention of views or fill buffers",
	Run: func(pass *Pass) {
		if pass.Pkg.Pkg.Path() == pmemPkgPath {
			return
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkPMemFunc(pass, fd.Body)
			}
		}
	},
}

func checkPMemFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	views := &aliasSet{info: info, vars: make(map[*types.Var]bool), root: "ReadNoCopy"}
	fills := &aliasSet{info: info, vars: fillParams(info, body)}
	views.collect(body)
	fills.collect(body)

	retained := func(rhs ast.Expr, where string) {
		switch {
		case views.contains(rhs):
			pass.Reportf(rhs.Pos(), "PMem-backed bytes retained in %s; later reads would bypass the Region latency model — copy via Region.Read instead", where)
		case fills.contains(rhs):
			pass.Reportf(rhs.Pos(), "WriteFill dst retained in %s; later writes through it would bypass the Region latency model — format only inside the fill", where)
		}
	}
	pkgScope := pass.Pkg.Pkg.Scope()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				switch lhs := lhs.(type) {
				case *ast.IndexExpr:
					if views.aliases(lhs.X) {
						pass.Reportf(lhs.Pos(), "write through PMem-backed bytes bypasses Region.Write and its latency/line accounting")
					}
				case *ast.SelectorExpr:
					if isFieldSelector(info, lhs) {
						retained(n.Rhs[i], "a struct field")
					}
				case *ast.Ident:
					if obj, ok := info.Uses[lhs].(*types.Var); ok && obj.Parent() == pkgScope {
						retained(n.Rhs[i], "package variable "+lhs.Name)
					}
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) >= 1 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "copy" && views.aliases(n.Args[0]) {
					pass.Reportf(n.Args[0].Pos(), "copy into PMem-backed bytes bypasses Region.Write and its latency/line accounting")
				}
			}
		}
		return true
	})
}

// aliasSet is the local variables of one function body that alias PMem
// bytes of one kind.
type aliasSet struct {
	info *types.Info
	vars map[*types.Var]bool
	root string // the pmem method whose result is such bytes; "" for none
}

// aliases reports whether e evaluates to bytes of the set: a root call,
// a tracked local, or a re-slicing of either.
func (a *aliasSet) aliases(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		return a.root != "" && isPMemMethod(a.info, e, a.root)
	case *ast.Ident:
		v, ok := a.info.Uses[e].(*types.Var)
		return ok && a.vars[v]
	case *ast.SliceExpr:
		return a.aliases(e.X)
	case *ast.ParenExpr:
		return a.aliases(e.X)
	}
	return false
}

// contains reports whether any subexpression of e aliases the set.
func (a *aliasSet) contains(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if expr, ok := n.(ast.Expr); ok && a.aliases(expr) {
			found = true
		}
		return !found
	})
	return found
}

// collect tracks every local assigned an alias, to a fixpoint (aliases of
// aliases converge in at most a handful of rounds for real code).
func (a *aliasSet) collect(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !a.aliases(as.Rhs[i]) {
					continue
				}
				var v *types.Var
				if def, ok := a.info.Defs[id].(*types.Var); ok {
					v = def
				} else if use, ok := a.info.Uses[id].(*types.Var); ok {
					v = use
				}
				if v != nil && !a.vars[v] {
					a.vars[v] = true
					changed = true
				}
			}
			return true
		})
	}
}

// fillParams returns the parameters of the function literals body hands
// a WriteFill — (*pmem.Region).WriteFill or (*pmem.Round).WriteFill — as
// its fill, the last argument of either.
func fillParams(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	params := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 || !isPMemMethod(info, call, "WriteFill") {
			return true
		}
		if lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); ok {
			for _, field := range lit.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						params[v] = true
					}
				}
			}
		}
		return true
	})
	return params
}

// isPMemMethod reports whether call is a method of the pmem package
// named name (ReadNoCopy is both Region's and Round's).
func isPMemMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pmemPkgPath
}

// isFieldSelector reports whether sel selects a struct field (as opposed
// to a qualified package identifier).
func isFieldSelector(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}
