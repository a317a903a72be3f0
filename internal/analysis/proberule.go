package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ProbeDiscipline enforces the reporter half of the telemetry contract:
// the sink's index probe calls reporter methods (RetrainStats and
// friends) from the snapshot goroutine, concurrently with whatever the
// index is doing — so a reporter must not read a plain integer counter
// field that the package also writes with a plain assignment. The fix
// is an atomic wrapper type (atomic.Int64 reads are selector calls on a
// struct field and pass untouched). A reporter whose body takes a lock
// (Lock/RLock) is assumed guarded and skipped.
var ProbeDiscipline = &Analyzer{
	Name: "probe-discipline",
	Doc:  "telemetry reporter methods read counters atomically or under a lock",
	Run:  runProbeDiscipline,
}

// reporterMethods are the method names the telemetry index probe calls
// from the snapshot goroutine (telemetry.CollectIndexStats reaches
// RetrainStats via index.RetrainStatsOf).
var reporterMethods = map[string]bool{
	"RetrainStats": true,
}

func runProbeDiscipline(pass *Pass) {
	info := pass.Pkg.Info

	// Phase 1: integer struct fields plainly written anywhere in the
	// package (assignment LHS or ++/--). These are the racy halves.
	writes := make(map[*types.Var]token.Pos)
	mark := func(e ast.Expr) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() || !isPlainCounterType(v.Type()) {
			return
		}
		if _, seen := writes[v]; !seen {
			writes[v] = sel.Sel.Pos()
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(st.X)
			}
			return true
		})
	}

	// Phase 2: plain reads of those fields inside reporter methods.
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !reporterMethods[fd.Name.Name] {
				continue
			}
			if acquiresLock(fd.Body) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				v, ok := info.Uses[sel.Sel].(*types.Var)
				if !ok || !v.IsField() || !isPlainCounterType(v.Type()) {
					return true
				}
				if wpos, written := writes[v]; written {
					p := pass.fset.Position(wpos)
					pass.Reportf(sel.Sel.Pos(),
						"reporter %s reads plain counter field %s, written at %s:%d; the telemetry probe calls reporters from the snapshot goroutine — use an atomic type",
						fd.Name.Name, v.Name(), relPath(pass.root, p.Filename), p.Line)
				}
				return true
			})
		}
	}
}

// isPlainCounterType reports whether t is a bare integer — the shape of
// an unprotected counter. Atomic wrapper fields (atomic.Int64 etc.) are
// structs and fall through.
func isPlainCounterType(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// acquiresLock reports whether body contains a Lock or RLock call —
// the mutex-guarded reporter pattern.
func acquiresLock(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
