package analysis

// goroutine-lifecycle: every `go` statement must launch a body that can
// observe or signal termination — somewhere on its transitive call tree
// there must be a shutdown edge: a (*sync.WaitGroup).Done, a channel
// receive/send/range/close, or a select over channels. A goroutine with
// none of those runs until process exit with no way to be joined,
// drained, or told to stop: the silent-leak shape that turns a
// per-connection worker into an unbounded population under churn.
//
// The edge is found by the call-graph engine and propagated through
// the SCC fixpoint, so a worker that loops calling a helper which
// ranges over a job channel passes — the edge does not have to be
// syntactically inside the launched body. Launches whose target cannot
// be resolved (a func value, or an out-of-module function like
// http.Server.Serve) are reported too: the analyzer cannot prove a
// lifecycle for them, and the deliberate process-lifetime ones take a
// one-line allowlist entry stating exactly that.
var GoroutineLifecycle = &Analyzer{
	Name: "goroutine-lifecycle",
	Doc:  "every goroutine launch reaches a shutdown edge (WaitGroup.Done, channel op, or close) on its call tree",
	RunModule: func(mp *ModulePass) {
		eng := mp.Engine()
		for _, n := range eng.Nodes() {
			if !mp.Analyzed(n.Pkg) {
				continue
			}
			for _, sp := range n.spawns {
				switch {
				case sp.target != nil:
					if !sp.target.Shutdown {
						mp.Reportf(sp.pos, "goroutine %s has no shutdown edge on its call tree (no WaitGroup.Done, channel operation, or close)", sp.target.Name())
					}
				case sp.lit != nil:
					if !eng.litShutdown(n.Pkg, sp.lit) {
						mp.Reportf(sp.pos, "goroutine has no shutdown edge on its call tree (no WaitGroup.Done, channel operation, or close)")
					}
				default:
					mp.Reportf(sp.pos, "goroutine target is not a module function; lifecycle cannot be verified (allowlist deliberate process-lifetime goroutines)")
				}
			}
		}
	},
}
