package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lock-order: the module-wide mutex-acquisition graph must be acyclic.
// An edge A → B means some function acquires B (directly, or anywhere
// on its call tree, via the engine's transitive lock sets) while
// holding A. Two locks on a cycle can be taken in both orders by
// concurrent goroutines — the classic ABBA deadlock, which in this
// codebase would wedge the server's opMu/store-mutex/shard-writer
// three-tier interplay rather than any single function.
//
// Lock identity is the declared variable: a struct field (every
// instance of server.opMu is one identity) or a package-level var.
// That is deliberately coarse — ordering is a property of lock
// classes, not instances — and it means self-edges (A while A) are
// ignored, since they are usually the same class on different
// instances (per-shard locks) rather than recursive acquisition.
//
// Held sets are tracked with a linear walk in source order: Lock/RLock
// adds the identity, Unlock/RUnlock removes it, a deferred unlock
// leaves it held to the end of the function. RLock and Lock share the
// identity (read-lock cycles still deadlock against writers).
var LockOrder = &Analyzer{
	Name: "lock-order",
	Doc:  "the module-wide mutex-acquisition graph derived from transitive lock sets is acyclic",
	RunModule: func(mp *ModulePass) {
		eng := mp.Engine()
		g := &lockGraph{edges: make(map[*types.Var]map[*types.Var]lockEdge)}
		for _, n := range eng.Nodes() {
			if !mp.Analyzed(n.Pkg) {
				continue
			}
			collectLockEdges(g, eng, n)
		}
		g.reportCycles(mp)
	},
}

// lockEdge is the evidence for one acquired-while-held pair.
type lockEdge struct {
	pos token.Pos // where the inner acquisition (or the call reaching it) happens
	fn  string    // function it happens in
}

type lockGraph struct {
	edges map[*types.Var]map[*types.Var]lockEdge
	locks []*types.Var // insertion-ordered key set, for determinism
}

func (g *lockGraph) add(held, acquired *types.Var, e lockEdge) {
	if held == acquired {
		return // same class, usually different instances; not an ordering edge
	}
	m := g.edges[held]
	if m == nil {
		m = make(map[*types.Var]lockEdge)
		g.edges[held] = m
		g.locks = append(g.locks, held)
	}
	if _, ok := m[acquired]; !ok {
		m[acquired] = e
	}
	if _, ok := g.edges[acquired]; !ok {
		g.edges[acquired] = make(map[*types.Var]lockEdge)
		g.locks = append(g.locks, acquired)
	}
}

// collectLockEdges walks n's body in source order with a held set.
func collectLockEdges(g *lockGraph, eng *Engine, n *FuncNode) {
	info := n.Pkg.Info
	held := make(map[*types.Var]bool)
	var order []*types.Var // held, in acquisition order, for deterministic edges
	acquireInto := func(v *types.Var, e lockEdge) {
		for _, h := range order {
			if held[h] {
				g.add(h, v, e)
			}
		}
	}
	deferredCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if d, ok := node.(*ast.DeferStmt); ok {
			deferredCalls[d.Call] = true
		}
		return true
	})
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		deferred := deferredCalls[call]
		fn := calleeFunc(info, call)
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			v := lockIdentity(info, call)
			if v == nil {
				return true
			}
			switch fn.Name() {
			case "Lock", "RLock":
				acquireInto(v, lockEdge{pos: call.Pos(), fn: n.Name()})
				if !held[v] {
					held[v] = true
					order = append(order, v)
				}
			case "Unlock", "RUnlock":
				if !deferred {
					held[v] = false
				}
				// Deferred unlocks keep the lock held to function end.
			}
			return true
		}
		// A call while locks are held: everything the callee's tree can
		// acquire is acquired under the held set. Interface dispatch uses
		// the engine's implements-matching, same as propagation.
		var callees []*FuncNode
		if c := eng.Node(fn); c != nil {
			callees = append(callees, c)
		} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
				if iface, ok := selection.Recv().Underlying().(*types.Interface); ok {
					callees = eng.implementers(iface, sel.Sel.Name)
				}
			}
		}
		for _, c := range callees {
			inner := make([]*types.Var, 0, len(c.Locks))
			for v := range c.Locks {
				inner = append(inner, v)
			}
			sort.Slice(inner, func(i, j int) bool { return lockName(inner[i]) < lockName(inner[j]) })
			for _, v := range inner {
				acquireInto(v, lockEdge{pos: call.Pos(), fn: n.Name()})
			}
		}
		return true
	})
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports each cycle once, at its first edge in lock-name
// order.
func (g *lockGraph) reportCycles(mp *ModulePass) {
	// Tarjan over lock vars.
	index := make(map[*types.Var]int)
	lowlink := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	comp := make(map[*types.Var]int)
	var stack []*types.Var
	next := 1
	ncomp := 0
	var components [][]*types.Var

	succs := func(v *types.Var) []*types.Var {
		out := make([]*types.Var, 0, len(g.edges[v]))
		for w := range g.edges[v] {
			out = append(out, w)
		}
		sort.Slice(out, func(i, j int) bool { return lockName(out[i]) < lockName(out[j]) })
		return out
	}
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		lowlink[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if index[w] == 0 {
				strongconnect(w)
				if lowlink[w] < lowlink[v] {
					lowlink[v] = lowlink[w]
				}
			} else if onStack[w] && index[w] < lowlink[v] {
				lowlink[v] = index[w]
			}
		}
		if lowlink[v] == index[v] {
			var c []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				c = append(c, w)
				if w == v {
					break
				}
			}
			ncomp++
			components = append(components, c)
		}
	}
	sorted := make([]*types.Var, len(g.locks))
	copy(sorted, g.locks)
	sort.Slice(sorted, func(i, j int) bool { return lockName(sorted[i]) < lockName(sorted[j]) })
	for _, v := range sorted {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	for _, c := range components {
		if len(c) < 2 {
			continue
		}
		names := make([]string, len(c))
		for i, v := range c {
			names[i] = lockName(v)
		}
		sort.Strings(names)
		// Report at the edge that closes the cycle between the first two
		// locks in name order (deterministic and points at real code).
		var at lockEdge
		for _, v := range c {
			for w, e := range g.edges[v] {
				if comp[w] == comp[v] && (at.pos == 0 || e.pos < at.pos) {
					at = e
				}
			}
		}
		mp.Reportf(at.pos, "lock-order cycle among %s (edge created in %s): these locks are acquired in conflicting orders", strings.Join(names, ", "), at.fn)
	}
}
