package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The interprocedural engine. A check of one function body lets a
// directive-carrying function launder a forbidden construct through a
// single helper call and pass clean. The engine closes that hole: it
// builds a module-wide call graph, records per-function summaries, and
// propagates them to a fixpoint over strongly connected components, so
// analyzers can ask "can anything this function may reach lock / signal
// shutdown?" instead of "does this body?". hotpath walks the graph
// itself over each body's violations; lock-order reads the transitive
// lock sets; goroutine-lifecycle reads the transitive shutdown edge.
//
// Resolution rules (the over-approximation contract):
//
//   - Static calls (package functions, methods on concrete receivers)
//     resolve exactly, to the one declared callee.
//   - Interface method calls resolve by implements-matching: the callee
//     set is every method of every named module type that implements
//     the interface. This over-approximates — the value at the call
//     site is some one of them — but never misses a module callee.
//   - Calls through plain func values (fields, parameters, locals) are
//     not resolved; they contribute no edges. What a func value does
//     is a documented hole, kept because seam closures are constructed
//     next to their install sites where the analyzers see the
//     construction directly.
//   - Out-of-module (standard library) callees are leaves classified by
//     package rule (fmt → formats, time.Now → reads the clock, sync →
//     locks) and are never descended into.
//
// Function literals are folded into their enclosing declaration: a
// literal's body contributes violations and edges to the declaring
// function. That is conservative (the literal is almost always run by
// its creator or on its behalf) and exactly right for the closure
// allocation the literal itself is. Goroutine bodies are the exception:
// spawn sites record the literal separately so goroutine-lifecycle can
// judge the spawned body on its own.
type Engine struct {
	// nodes maps every module function declaration to its graph node.
	nodes map[*types.Func]*FuncNode
	// list is nodes in stable (position) order, for deterministic walks.
	list []*FuncNode

	// named is every named, non-interface module type, the candidate set
	// for implements-matching.
	named []*types.Named
	// dispatch caches implements-matching per (interface, method name).
	dispatch map[dispatchKey][]*FuncNode
}

// violation is one hotpath-relevant construct found in a function body,
// kept with its position so transitive findings point at the offending
// line, not at the directive that outlawed it.
type violation struct {
	pos  token.Pos
	what string
	// clock marks clock-read violations, which are legal on the call
	// tree of a //pieces:hotpath meter root.
	clock bool
}

// spawnSite is one `go` statement: either a resolved target node, an
// anonymous literal body, or an unresolvable callee (func value or
// out-of-module function).
type spawnSite struct {
	pos    token.Pos
	target *FuncNode    // nil when lit or unresolved
	lit    *ast.FuncLit // nil when target or unresolved
}

// FuncNode is one module function in the call graph.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Hot and Meter mirror the //pieces:hotpath [meter] directive.
	Hot, Meter bool

	calls  []*FuncNode // resolved callees, one per call site
	spawns []spawnSite

	// viols are the hotpath-relevant constructs in this body.
	viols []violation
	// localLocks are the lock identities this body acquires directly.
	localLocks map[*types.Var]bool
	// localShutdown: this body can observe or signal termination — a
	// WaitGroup.Done, a channel operation (receive, range, send, close).
	localShutdown bool

	// Shutdown is the fixpoint of localShutdown: true when this function
	// or anything it may call has a shutdown edge. goroutine-lifecycle
	// demands it somewhere on every spawned call tree.
	Shutdown bool
	// Locks is the transitive lock set: every lock identity acquired by
	// this function or anything it may call.
	Locks map[*types.Var]bool

	// Tarjan bookkeeping.
	index, lowlink int
	onStack        bool
	scc            int
}

// Name renders the node for diagnostics: Type.Method or Func, with the
// package for out-of-package clarity.
func (n *FuncNode) Name() string {
	if recv := callReceiver(n.Fn); recv != "" {
		return recv + n.Fn.Name()
	}
	return n.Fn.Name()
}

type dispatchKey struct {
	iface *types.Interface
	name  string
}

// engineCache memoizes engines per loader and package set: the suite's
// module analyzers all need the same graph, and golden subtests reuse
// one loader across many small package sets.
var engineCache = map[*Loader]map[string]*Engine{}

// BuildEngine returns the call-graph engine over pkgs, memoized on the
// loader and the package set.
func BuildEngine(loader *Loader, pkgs []*Package) *Engine {
	paths := make([]string, len(pkgs))
	for i, p := range pkgs {
		paths[i] = p.ImportPath
	}
	sort.Strings(paths)
	key := strings.Join(paths, " ")
	byKey := engineCache[loader]
	if byKey == nil {
		byKey = map[string]*Engine{}
		engineCache[loader] = byKey
	}
	if e, ok := byKey[key]; ok {
		return e
	}
	e := newEngine(pkgs)
	byKey[key] = e
	return e
}

func newEngine(pkgs []*Package) *Engine {
	e := &Engine{
		nodes:    make(map[*types.Func]*FuncNode),
		dispatch: make(map[dispatchKey][]*FuncNode),
	}
	// Pass 1: index declarations and named types.
	for _, pkg := range pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isIface := named.Underlying().(*types.Interface); !isIface {
						e.named = append(e.named, named)
					}
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				hot, meter := hotpathMarked(fd)
				e.nodes[fn] = &FuncNode{
					Fn: fn, Decl: fd, Pkg: pkg,
					Hot: hot, Meter: meter,
					localLocks: make(map[*types.Var]bool),
				}
			}
		}
	}
	sort.Slice(e.named, func(i, j int) bool {
		return e.named[i].Obj().Pos() < e.named[j].Obj().Pos()
	})
	for _, n := range e.nodes {
		e.list = append(e.list, n)
	}
	sort.Slice(e.list, func(i, j int) bool { return e.list[i].Decl.Pos() < e.list[j].Decl.Pos() })
	// Pass 2: scan bodies for violations, locks, shutdown edges and calls.
	for _, n := range e.list {
		s := &bodyScanner{engine: e, node: n, info: n.Pkg.Info}
		s.scan(n.Decl.Body)
	}
	// Pass 3: fixpoint over SCCs.
	e.propagate()
	return e
}

// Node returns the graph node for fn, nil when fn is not a module
// function declaration.
func (e *Engine) Node(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return e.nodes[fn]
}

// Nodes returns every node in stable source order.
func (e *Engine) Nodes() []*FuncNode { return e.list }

// implementers resolves an interface method call site to every module
// method that could receive it.
func (e *Engine) implementers(iface *types.Interface, name string) []*FuncNode {
	key := dispatchKey{iface, name}
	if out, ok := e.dispatch[key]; ok {
		return out
	}
	var out []*FuncNode
	for _, named := range e.named {
		t := types.Type(named)
		if !types.Implements(t, iface) {
			pt := types.NewPointer(named)
			if !types.Implements(pt, iface) {
				continue
			}
			t = pt
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, named.Obj().Pkg(), name)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := e.nodes[m]; n != nil {
			out = append(out, n)
		}
	}
	e.dispatch[key] = out
	return out
}

// bodyScanner walks one declaration body collecting violations, call
// edges, lock acquisitions and spawn sites. Function literals fold into the declaration
// (see the package comment), except as goroutine bodies.
type bodyScanner struct {
	engine *Engine
	node   *FuncNode
	info   *types.Info

	// sortCallbacks marks literals passed directly to package sort,
	// which are non-escaping (see the FuncLit case in scan).
	sortCallbacks map[*ast.FuncLit]bool
}

func (s *bodyScanner) violate(pos token.Pos, clock bool, format string, args ...interface{}) {
	s.node.viols = append(s.node.viols, violation{pos: pos, what: fmt.Sprintf(format, args...), clock: clock})
}

// scan walks one body.
func (s *bodyScanner) scan(body *ast.BlockStmt) {
	if s.sortCallbacks == nil {
		s.sortCallbacks = make(map[*ast.FuncLit]bool)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			s.violate(n.Pos(), false, "goroutine launch")
			s.spawn(n)
			// Descend: the spawned body's constructs still fold into the
			// spawner (it caused them to happen).
		case *ast.DeferStmt:
			s.violate(n.Pos(), false, "defer")
		case *ast.FuncLit:
			// A literal handed straight to package sort (sort.Search and
			// friends) is stack-allocated — sort's comparator parameters
			// are annotated non-escaping — so it is not an allocation
			// violation for the transitive layer. The intraprocedural
			// layer still bans literals in marked bodies outright. All
			// other literals count: a callee might retain them.
			if s.sortCallbacks[n] {
				break
			}
			s.violate(n.Pos(), false, "function literal (closure allocation)")
		case *ast.SendStmt:
			s.node.localShutdown = true
			s.violate(n.Pos(), false, "channel send")
		case *ast.SelectStmt:
			s.violate(n.Pos(), false, "select")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				s.node.localShutdown = true
				s.violate(n.Pos(), false, "channel receive")
			}
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					s.violate(n.Pos(), false, "heap allocation (&composite literal)")
				}
			}
		case *ast.RangeStmt:
			if tv, ok := s.info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					s.node.localShutdown = true
					s.violate(n.Pos(), false, "channel range")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := s.info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					s.violate(n.Pos(), false, "slice/map literal allocation")
				}
			}
		case *ast.CallExpr:
			s.call(n)
		}
		return true
	})
}

// spawn records a `go` statement's launched body for goroutine-lifecycle.
func (s *bodyScanner) spawn(g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		s.node.spawns = append(s.node.spawns, spawnSite{pos: g.Pos(), lit: lit})
		return
	}
	fn := calleeFunc(s.info, g.Call)
	s.node.spawns = append(s.node.spawns, spawnSite{pos: g.Pos(), target: s.engine.Node(fn)})
}

// call classifies one call expression: builtin, conversion, static
// module call, interface dispatch, or external leaf.
func (s *bodyScanner) call(call *ast.CallExpr) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := s.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				s.violate(call.Pos(), false, "%s allocates", b.Name())
			case "close":
				s.node.localShutdown = true
				s.violate(call.Pos(), false, "channel close")
			}
			return
		}
	}
	// Conversions: only the allocating string<->byte/rune-slice ones.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			if argTV, ok := s.info.Types[call.Args[0]]; ok && allocatingConversion(tv.Type, argTV.Type) {
				s.violate(call.Pos(), false, "string/slice conversion allocates")
			}
		}
		return
	}
	// Interface dispatch: a method selected from an interface-typed
	// receiver resolves to every implementing module method.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := s.info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			if iface, ok := selection.Recv().Underlying().(*types.Interface); ok {
				for _, impl := range s.engine.implementers(iface, sel.Sel.Name) {
					s.node.calls = append(s.node.calls, impl)
				}
				return
			}
		}
	}
	fn := calleeFunc(s.info, call)
	if fn == nil || fn.Pkg() == nil {
		return // func value or field call: unresolvable, see package comment
	}
	if n := s.engine.Node(fn); n != nil {
		s.node.calls = append(s.node.calls, n)
		return
	}
	// External leaf: classified by package rule.
	switch fn.Pkg().Path() {
	case "sort":
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				s.sortCallbacks[lit] = true
			}
		}
	case "fmt":
		s.violate(call.Pos(), false, "fmt.%s (formatting allocates and dwarfs the measured op)", fn.Name())
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			s.violate(call.Pos(), true, "time.%s", fn.Name())
		}
	case "sync":
		s.violate(call.Pos(), false, "sync.%s%s", callReceiver(fn), fn.Name())
		if fn.Name() == "Done" {
			s.node.localShutdown = true
		}
		if id := lockIdentity(s.info, call); id != nil {
			if isAcquire(fn) {
				s.node.localLocks[id] = true
			}
		}
	}
}

// isAcquire reports whether fn takes (rather than releases) a lock.
func isAcquire(fn *types.Func) bool {
	switch fn.Name() {
	case "Lock", "RLock":
		return true
	}
	return false
}

// lockIdentity names the lock a sync call operates on: the struct field
// or variable object of the receiver (s.mu → the mu field of S; a
// package-level mu → that var). Two acquisitions of the same field on
// different instances share an identity — conservative for lock-order,
// which is about classes of locks, not instances.
func lockIdentity(info *types.Info, call *ast.CallExpr) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		v, _ := info.Uses[recv.Sel].(*types.Var)
		return v
	case *ast.Ident:
		v, _ := info.Uses[recv].(*types.Var)
		return v
	}
	return nil
}

// propagate runs the SCC fixpoint: Tarjan's algorithm condenses the
// graph, then shutdown edges and lock sets flow callee → caller in
// reverse topological order. Within an SCC every member gets the union (mutual
// recursion shares one summary).
func (e *Engine) propagate() {
	// Iterative Tarjan (module call chains can be deep).
	index := 1
	var stack []*FuncNode
	var sccs [][]*FuncNode

	type frame struct {
		n    *FuncNode
		edge int
	}
	var strongconnect func(root *FuncNode)
	strongconnect = func(root *FuncNode) {
		work := []frame{{n: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			n := f.n
			if f.edge == 0 {
				n.index = index
				n.lowlink = index
				index++
				stack = append(stack, n)
				n.onStack = true
			}
			advanced := false
			for f.edge < len(n.calls) {
				callee := n.calls[f.edge]
				f.edge++
				if callee.index == 0 {
					work = append(work, frame{n: callee})
					advanced = true
					break
				}
				if callee.onStack && callee.index < n.lowlink {
					n.lowlink = callee.index
				}
			}
			if advanced {
				continue
			}
			if n.lowlink == n.index {
				var scc []*FuncNode
				for {
					m := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					m.onStack = false
					m.scc = len(sccs)
					scc = append(scc, m)
					if m == n {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].n
				if n.lowlink < parent.lowlink {
					parent.lowlink = n.lowlink
				}
			}
		}
	}
	for _, n := range e.list {
		if n.index == 0 {
			strongconnect(n)
		}
	}
	// Tarjan emits SCCs in reverse topological order (callees before
	// callers), so one pass over sccs in emission order is the fixpoint.
	for _, scc := range sccs {
		shutdown := false
		locks := make(map[*types.Var]bool)
		for _, n := range scc {
			shutdown = shutdown || n.localShutdown
			for v := range n.localLocks {
				locks[v] = true
			}
			for _, c := range n.calls {
				if c.scc == n.scc {
					continue // within the component; unioned below
				}
				shutdown = shutdown || c.Shutdown
				for v := range c.Locks {
					locks[v] = true
				}
			}
		}
		for _, n := range scc {
			n.Shutdown = shutdown
			n.Locks = locks
		}
	}
}

// litShutdown reports whether a function literal's body (a goroutine
// body) has a shutdown edge on its call tree: in the body itself or in
// anything it calls. The node-less body is scanned on a throwaway node.
func (e *Engine) litShutdown(pkg *Package, lit *ast.FuncLit) bool {
	tmp := &FuncNode{Pkg: pkg, localLocks: make(map[*types.Var]bool)}
	s := &bodyScanner{engine: e, node: tmp, info: pkg.Info}
	s.scan(lit.Body)
	shutdown := tmp.localShutdown
	for _, c := range tmp.calls {
		shutdown = shutdown || c.Shutdown
	}
	return shutdown
}

// lockName renders a lock identity as Owner.field (or the bare name for
// package-level locks).
func lockName(v *types.Var) string {
	if v.IsField() {
		if owner := fieldOwner(v); owner != "" {
			return owner + "." + v.Name()
		}
	}
	if pkg := v.Pkg(); pkg != nil && !v.IsField() {
		if i := strings.LastIndex(pkg.Path(), "/"); i >= 0 {
			return pkg.Path()[i+1:] + "." + v.Name()
		}
		return pkg.Path() + "." + v.Name()
	}
	return v.Name()
}

// fieldOwner finds the named struct type declaring field v.
func fieldOwner(v *types.Var) string {
	pkg := v.Pkg()
	if pkg == nil {
		return ""
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return ""
}
