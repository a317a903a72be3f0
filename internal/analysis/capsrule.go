package analysis

import (
	"go/ast"
	"go/types"
)

// indexPkgPath is the capability API package; the one place allowed to
// type-assert against its own optional interfaces.
const indexPkgPath = "learnedpieces/internal/index"

// capsInterfaces are the optional capability interfaces of the index
// package. index.Index and the interfaces it embeds (Upserter, Bulk,
// Sized) are mandatory and asserting to them is harmless, so they are
// not listed.
var capsInterfaces = map[string]bool{
	"Ranger":           true,
	"Deleter":          true,
	"BatchGetter":      true,
	"AsyncRetrainer":   true,
	"DepthReporter":    true,
	"RetrainReporter":  true,
	"ConcurrentWrites": true,
}

// CapsDiscipline forbids raw type assertions and type switches against
// the index package's optional capability interfaces outside the index
// package itself. Everything else resolves capabilities once through
// index.CapsOf (the boolean descriptor) or index.Seams (the typed
// dispatch surface); wrapper-internal dispatch seams are justified in
// pieceslint.allow.
var CapsDiscipline = &Analyzer{
	Name: "caps-discipline",
	Doc:  "optional index capabilities resolve through CapsOf/Seams, not ad-hoc type assertions",
	Run: func(pass *Pass) {
		if pass.Pkg.Pkg.Path() == indexPkgPath {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					if n.Type == nil {
						return true // the x.(type) of a type switch; cases handled below
					}
					if name, ok := capsInterfaceName(pass.Pkg.Info, n.Type); ok {
						pass.Reportf(n.Pos(), "type assertion to index.%s outside internal/index; resolve capabilities once via index.CapsOf/index.Seams, or justify the seam in %s", name, AllowlistFile)
					}
				case *ast.TypeSwitchStmt:
					for _, clause := range n.Body.List {
						for _, t := range clause.(*ast.CaseClause).List {
							if name, ok := capsInterfaceName(pass.Pkg.Info, t); ok {
								pass.Reportf(t.Pos(), "type switch case on index.%s outside internal/index; resolve capabilities once via index.CapsOf/index.Seams, or justify the seam in %s", name, AllowlistFile)
							}
						}
					}
				}
				return true
			})
		}
	},
}

// capsInterfaceName reports whether the type expression names one of the
// index package's optional capability interfaces.
func capsInterfaceName(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != indexPkgPath {
		return "", false
	}
	return obj.Name(), capsInterfaces[obj.Name()]
}
