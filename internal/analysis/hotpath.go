package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Directive markers. A function documented with
//
//	//pieces:hotpath
//
// declares itself part of a measured hot path (telemetry record paths,
// pmem read/write, index Get): the analyzer rejects anything that would
// perturb the measurement — fmt calls, clock reads, lock/channel
// operations, defer, and obvious allocation constructs. The variant
//
//	//pieces:hotpath meter
//
// marks the sanctioned meters themselves (telemetry spans, the pmem
// latency injector): time.Now/Since/Until are their job, everything
// else stays forbidden.
const (
	hotpathDirective = "//pieces:hotpath"
	meterArg         = "meter"
)

// HotPath enforces the //pieces:hotpath directive, in two layers. The
// intraprocedural layer checks each marked body directly, exactly as it
// always has. The transitive layer walks the call-graph engine from
// every marked function and reports the same class of constructs in any
// unmarked function the hot path can reach — so the directive is a
// whole-call-tree guarantee, not a single-body one. Marked callees are
// trusted boundaries (they are roots of their own check, with their own
// meter status), and on the call tree of a meter root clock reads stay
// legal. Transitive findings are reported at the offending construct,
// not at the directive, so an exception for a deliberately lock-based
// leaf is one allowlist line on the leaf's file.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//pieces:hotpath call trees stay free of fmt, clocks, locks, channels, defer and allocations",
	RunModule: func(mp *ModulePass) {
		for _, pkg := range mp.Pkgs {
			pass := &Pass{Reporter: mp.Reporter, Pkg: pkg}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					hot, meter := hotpathMarked(fd)
					if hot {
						checkHotPath(pass, fd, meter)
					}
				}
			}
		}
		checkHotPathTransitive(mp)
	},
}

// checkHotPathTransitive reports hotpath-violating constructs in
// unmarked functions reachable from a marked root. Roots are visited in
// source order and each construct is reported once, attributed to the
// first root that reaches it.
func checkHotPathTransitive(mp *ModulePass) {
	eng := mp.Engine()
	type hit struct {
		pos  token.Pos
		what string
		fn   string
		root string
	}
	var hits []hit
	seen := make(map[token.Pos]bool)
	for _, root := range eng.Nodes() {
		if !root.Hot || !mp.Analyzed(root.Pkg) {
			continue
		}
		visited := make(map[*FuncNode]bool)
		var walk func(n *FuncNode)
		walk = func(n *FuncNode) {
			if visited[n] {
				return
			}
			visited[n] = true
			for _, v := range n.viols {
				if v.clock && root.Meter {
					continue // meters own the clock, tree-wide
				}
				if seen[v.pos] {
					continue
				}
				seen[v.pos] = true
				hits = append(hits, hit{pos: v.pos, what: v.what, fn: n.Name(), root: root.Name()})
			}
			for _, c := range n.calls {
				if c.Hot {
					continue // trusted boundary: a root of its own check
				}
				walk(c)
			}
		}
		for _, c := range root.calls {
			if !c.Hot {
				walk(c)
			}
		}
	}
	for _, h := range hits {
		mp.Reportf(h.pos, "%s in %s, reached from hotpath %s", h.what, h.fn, h.root)
	}
}

// hotpathMarked parses the function's doc comment for the directive.
func hotpathMarked(fd *ast.FuncDecl) (hot, meter bool) {
	if fd.Doc == nil {
		return false, false
	}
	for _, c := range fd.Doc.List {
		if !strings.HasPrefix(c.Text, hotpathDirective) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, hotpathDirective)
		if rest != "" && !strings.HasPrefix(rest, " ") {
			continue // e.g. //pieces:hotpathological
		}
		hot = true
		if strings.TrimSpace(rest) == meterArg {
			meter = true
		}
	}
	return hot, meter
}

func checkHotPath(pass *Pass, fd *ast.FuncDecl, meter bool) {
	info := pass.Pkg.Info
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer in hotpath %s (per-call closure and scheduling cost)", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in hotpath %s", name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in hotpath %s", name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in hotpath %s", name)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in hotpath %s", name)
			}
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "heap allocation (&composite literal) in hotpath %s", name)
				}
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "channel range in hotpath %s", name)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal (closure allocation) in hotpath %s", name)
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "slice/map literal allocation in hotpath %s", name)
				}
			}
		case *ast.CallExpr:
			checkHotPathCall(pass, info, n, name, meter)
		}
		return true
	})
}

func checkHotPathCall(pass *Pass, info *types.Info, call *ast.CallExpr, name string, meter bool) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s in hotpath %s allocates", b.Name(), name)
			case "close":
				pass.Reportf(call.Pos(), "channel close in hotpath %s", name)
			}
			return
		}
	}
	// Conversions: only the allocating string<->byte/rune-slice ones.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if argTV, ok := info.Types[call.Args[0]]; ok && allocatingConversion(tv.Type, argTV.Type) {
				pass.Reportf(call.Pos(), "string/slice conversion in hotpath %s allocates", name)
			}
		}
		return
	}
	// Named callees.
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		pass.Reportf(call.Pos(), "fmt.%s in hotpath %s (formatting allocates and dwarfs the measured op)", fn.Name(), name)
	case "time":
		if !meter && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
			pass.Reportf(call.Pos(), "time.%s in hotpath %s; clock reads belong to sanctioned meters (//pieces:hotpath meter)", fn.Name(), name)
		}
	case "sync":
		pass.Reportf(call.Pos(), "sync.%s in hotpath %s; hot paths are lock-free by contract", callReceiver(fn)+fn.Name(), name)
	}
}

// calleeFunc resolves the called *types.Func for plain and method calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// callReceiver renders "Type." for methods, "" for functions.
func callReceiver(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name() + "."
	}
	return ""
}

// allocatingConversion reports string([]byte), []byte(string) and the
// rune-slice variants — conversions that copy into a fresh allocation.
func allocatingConversion(dst, src types.Type) bool {
	isString := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}
