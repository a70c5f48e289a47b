package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CanonicalLockOrder is the repo's documented mutex-acquisition order: a
// code path holding lock i may acquire lock j only when i precedes j here.
// It was derived from the PR 6 replica fleet — the group lock wraps lineage
// reads, lineage wraps per-node state, node state wraps the publisher's
// accept gate (closeMu, held across an Observe) and that wraps its journal
// critical section, and everything may take the leaf mutexes
// (telemetry counters, transport bookkeeping, error latches) last. The
// budget arbiter's mutex sits outermost: a Cycle holds it across every
// holder resize, which may enter the publisher's writer machinery and from
// there any of the locks below. The socket transport's locks nest inside
// the publisher's accept critical section (the stream fan-out sends under
// jmu): its table lock wraps the per-endpoint bootstrap state (snapshot
// install) and per-endpoint inbox state (re-register), with the per-link
// connection state and the jitter stream as leaves. lockorder
// does not enforce this list directly — it proves the observed acquisition
// graph is acyclic, which every order-respecting program satisfies — but
// cycle reports cite it so the fix direction is unambiguous.
var CanonicalLockOrder = []string{
	"budget.Arbiter.mu",
	"replica.Group.mu",
	"replica.Group.linMu",
	"replica.node.mu",
	"core.Publisher.closeMu",
	"core.Publisher.jmu",
	"core.Publisher.errMu",
	"replica.Group.ckptMu",
	"replica.Group.applyErrMu",
	"replica.MemTransport.mu",
	"nettransport.NetTransport.mu",
	"nettransport.bootState.mu",
	"nettransport.endpoint.mu",
	"nettransport.connMgr.mu",
	"nettransport.NetTransport.rngMu",
	"replica.GroupTelemetry.mu",
}

// lockOrderScope is the package-path suffixes whose mutex graph lockorder
// builds: the five concurrency-heavy packages the epoch/snapshot publisher
// and the replica fleet live in. Fixture packages load under the same
// suffixes so golden tests exercise the real scoping.
var lockOrderScope = []string{
	"internal/budget",
	"internal/core",
	"internal/replica",
	"internal/replica/nettransport",
	"internal/journal",
	"internal/telemetry",
	"internal/buffercache",
}

// LockOrder proves the mutex-acquisition graph of the concurrency packages
// is acyclic. It identifies locks by owning struct field (pkg.Type.field),
// simulates each function's held set statement by statement (branch-aware;
// deferred unlocks hold to function end; goroutines inherit nothing), then
// propagates may-acquire sets over the static call graph so an edge A->B is
// recorded whenever a path holding A can reach an acquisition of B — in the
// same function or transitively through callees. Any strongly connected
// component in the resulting graph is a potential deadlock.
//
// Known blind spots, by construction: locks reached through interface
// methods or function values are not tracked (the call target is unknown
// statically), and local mutex variables are ignored (no cross-function
// ordering exists for them).
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "mutex-acquisition graph of the concurrency packages must be acyclic (no lock-order inversions)"
}

// Run implements Analyzer; lockorder only runs module-wide.
func (LockOrder) Run(*Package) []Finding { return nil }

// RunModule implements ModuleAnalyzer.
func (LockOrder) RunModule(pkgs []*Package) []Finding {
	g := &lockGraph{
		summaries: make(map[*types.Func]*lockSummary),
		edges:     make(map[lockEdge]token.Position),
	}
	for _, pkg := range pkgs {
		if lockOrderInScope(pkg) {
			g.scanPackage(pkg)
		}
	}
	g.propagate()
	return g.cycleFindings()
}

func lockOrderInScope(pkg *Package) bool {
	for _, suf := range lockOrderScope {
		if strings.HasSuffix(pkg.Path, suf) {
			return true
		}
	}
	return false
}

// lockEdge is one observed ordering: from was held when to was acquired.
type lockEdge struct{ from, to string }

// lockCall is a call made while holding locks; during propagation it
// expands into edges held x mayAcquire(callee).
type lockCall struct {
	callee *types.Func
	held   []string
	pos    token.Position
}

// lockSummary is one function body's contribution to the graph.
type lockSummary struct {
	acquires map[string]bool
	calls    []lockCall
}

type lockGraph struct {
	summaries map[*types.Func]*lockSummary
	anon      []*lockSummary // function literals: analyzed, never called into
	edges     map[lockEdge]token.Position
	mayAcq    map[*types.Func]map[string]bool
}

func (g *lockGraph) addEdge(from, to string, pos token.Position) {
	e := lockEdge{from, to}
	if old, ok := g.edges[e]; !ok || posLess(pos, old) {
		g.edges[e] = pos
	}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

func (g *lockGraph) scanPackage(pkg *Package) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sum := &lockSummary{acquires: make(map[string]bool)}
			w := &lockWalker{pkg: pkg, g: g, sum: sum}
			w.block(fd.Body.List, make(map[string]bool))
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				g.summaries[fn] = sum
			} else {
				g.anon = append(g.anon, sum)
			}
		}
	}
}

// lockWalker simulates one function body, tracking the set of held locks.
type lockWalker struct {
	pkg *Package
	g   *lockGraph
	sum *lockSummary
}

// block simulates a statement list against held, reporting whether control
// cannot fall out of the bottom (every path returned or branched away).
func (w *lockWalker) block(stmts []ast.Stmt, held map[string]bool) bool {
	for _, s := range stmts {
		if w.stmt(s, held) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, held)
		}
		for _, e := range s.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, held)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current path; fallthrough continues.
		return s.Tok != token.FALLTHROUGH
	case *ast.GoStmt:
		// Arguments are evaluated by the spawner; the goroutine itself
		// starts with an empty held set, so the call contributes no edges
		// from the spawner's locks.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.funcLit(fl)
		}
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.funcLit(fl)
			break
		}
		if id, kind, isMutex := w.mutexOp(s.Call); isMutex {
			// defer mu.Unlock(): the lock stays held to function end, which
			// is exactly how the simulation already models an un-released
			// lock. A (pathological) defer mu.Lock() is recorded as-is.
			if kind == lockAcquire && id != "" {
				w.acquire(id, held, s.Call.Pos())
			}
			break
		}
		// Other deferred calls run at return; the current held set is the
		// closest static approximation of what is held then.
		w.call(s.Call, held)
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		thenHeld := copyHeld(held)
		thenTerm := w.block(s.Body.List, thenHeld)
		elseHeld := copyHeld(held)
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			setHeld(held, elseHeld)
		case elseTerm:
			setHeld(held, thenHeld)
		default:
			// Conservative union: a lock held on either surviving branch is
			// treated as held after the if.
			setHeld(held, unionHeld(thenHeld, elseHeld))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		body := copyHeld(held)
		if !w.block(s.Body.List, body) && s.Post != nil {
			w.stmt(s.Post, body)
		}
		// Loop bodies are assumed lock-balanced; acquisitions inside were
		// recorded while simulating the copy.
	case *ast.RangeStmt:
		w.expr(s.X, held)
		body := copyHeld(held)
		w.block(s.Body.List, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e, held)
			}
			body := copyHeld(held)
			w.block(cc.Body, body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			body := copyHeld(held)
			w.block(cc.Body, body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			body := copyHeld(held)
			if cc.Comm != nil {
				w.stmt(cc.Comm, body)
			}
			w.block(cc.Body, body)
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	}
	return false
}

// expr records every mutex operation and tracked call inside e, in source
// order. Function literals are analyzed separately with an empty held set:
// a closure runs wherever its holder invokes it, not under the locks held
// at its definition site.
func (w *lockWalker) expr(e ast.Expr, held map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.funcLit(n)
			return false
		case *ast.CallExpr:
			if id, kind, isMutex := w.mutexOp(n); isMutex {
				if id != "" {
					if kind == lockAcquire {
						w.acquire(id, held, n.Pos())
					} else {
						delete(held, id)
					}
				}
				return false
			}
			w.call(n, held)
		}
		return true
	})
}

func (w *lockWalker) funcLit(fl *ast.FuncLit) {
	sum := &lockSummary{acquires: make(map[string]bool)}
	inner := &lockWalker{pkg: w.pkg, g: w.g, sum: sum}
	inner.block(fl.Body.List, make(map[string]bool))
	w.g.anon = append(w.g.anon, sum)
}

func (w *lockWalker) acquire(id string, held map[string]bool, pos token.Pos) {
	p := w.pkg.Fset.Position(pos)
	if held[id] {
		// Re-acquiring a held lock is a self-deadlock (sync.Mutex is not
		// reentrant; a recursive RLock can deadlock against a queued writer).
		w.g.addEdge(id, id, p)
	}
	for h := range held {
		if h != id {
			w.g.addEdge(h, id, p)
		}
	}
	held[id] = true
	w.sum.acquires[id] = true
}

func (w *lockWalker) call(call *ast.CallExpr, held map[string]bool) {
	if len(held) == 0 {
		return // the callee's own orderings live in its summary
	}
	fn := calleeFunc(w.pkg, call)
	if fn == nil {
		return // builtin, conversion, interface method, or function value
	}
	hc := make([]string, 0, len(held))
	for h := range held {
		hc = append(hc, h)
	}
	sort.Strings(hc)
	w.sum.calls = append(w.sum.calls, lockCall{
		callee: fn,
		held:   hc,
		pos:    w.pkg.Fset.Position(call.Pos()),
	})
}

type lockOpKind int

const (
	lockAcquire lockOpKind = iota
	lockRelease
)

// mutexOp classifies a call as a sync.Mutex/RWMutex (R)Lock/(R)Unlock on a
// struct-field lock. isMutex is true for any sync lock call; id is empty
// when the receiver is not a tracked field (a local mutex, say).
func (w *lockWalker) mutexOp(call *ast.CallExpr) (id string, kind lockOpKind, isMutex bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", 0, false
	}
	fn, _ := w.pkg.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return "", 0, false
	}
	return w.lockID(ast.Unparen(sel.X)), kind, true
}

// lockID names a mutex field as ownerPkg.OwnerType.field, the identity the
// graph is keyed by. Non-field receivers return "".
func (w *lockWalker) lockID(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj, _ := w.pkg.Info.Uses[sel.Sel].(*types.Var)
	if obj == nil || !obj.IsField() {
		return ""
	}
	t := typeOf(w.pkg, sel.X)
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	tn := named.Obj()
	return tn.Pkg().Name() + "." + tn.Name() + "." + obj.Name()
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

func setHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

func unionHeld(a, b map[string]bool) map[string]bool {
	out := copyHeld(a)
	for k := range b {
		out[k] = true
	}
	return out
}

// propagate computes each function's may-acquire set to a fixpoint over the
// call graph, then expands every held-locks call site into edges.
func (g *lockGraph) propagate() {
	g.mayAcq = make(map[*types.Func]map[string]bool, len(g.summaries))
	for fn, s := range g.summaries {
		g.mayAcq[fn] = copyHeld(s.acquires)
	}
	for changed := true; changed; {
		changed = false
		for fn, s := range g.summaries {
			m := g.mayAcq[fn]
			for _, c := range s.calls {
				for a := range g.mayAcq[c.callee] {
					if !m[a] {
						m[a] = true
						changed = true
					}
				}
			}
		}
	}
	expand := func(s *lockSummary) {
		for _, c := range s.calls {
			for to := range g.mayAcq[c.callee] {
				for _, from := range c.held {
					g.addEdge(from, to, c.pos)
				}
			}
		}
	}
	for _, s := range g.summaries {
		expand(s)
	}
	for _, s := range g.anon {
		expand(s)
	}
}

// cycleFindings reports one finding per strongly connected component of the
// edge graph (plus self-loops), anchored at the earliest edge of a
// deterministic representative cycle.
func (g *lockGraph) cycleFindings() []Finding {
	adj := make(map[string][]string)
	nodeSet := make(map[string]bool)
	for e := range g.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodeSet[e.from] = true
		nodeSet[e.to] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		sort.Strings(adj[n])
	}

	var out []Finding
	for _, scc := range stronglyConnected(nodes, adj) {
		if len(scc) == 1 {
			if _, self := g.edges[lockEdge{scc[0], scc[0]}]; !self {
				continue
			}
		}
		in := make(map[string]bool, len(scc))
		for _, n := range scc {
			in[n] = true
		}
		sort.Strings(scc)
		cycle := shortestCycle(scc[0], in, adj)
		if cycle == nil {
			continue
		}
		next := cycle[0]
		if len(cycle) > 1 {
			next = cycle[1]
		}
		pos := g.edges[lockEdge{cycle[0], next}]
		path := strings.Join(append(append([]string(nil), cycle...), cycle[0]), " -> ")
		out = append(out, Finding{
			Analyzer: "lockorder",
			Pos:      pos,
			Message: "lock acquisition cycle " + path +
				" can deadlock; acquire in one global order (canonical: " +
				strings.Join(CanonicalLockOrder, " < ") + ")",
		})
	}
	return out
}

// shortestCycle returns the shortest cycle through start confined to the
// node set, as [start, n1, n2, ...]; BFS over sorted adjacency makes the
// result deterministic. A self-loop yields [start].
func shortestCycle(start string, in map[string]bool, adj map[string][]string) []string {
	for _, n := range adj[start] {
		if n == start {
			return []string{start}
		}
	}
	prev := map[string]string{}
	queue := []string{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range adj[cur] {
			if n == start {
				// Walk back to start to materialize the path.
				path := []string{cur}
				for p := cur; p != start; {
					p = prev[p]
					path = append(path, p)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			if !in[n] {
				continue
			}
			if _, seen := prev[n]; !seen {
				prev[n] = cur
				queue = append(queue, n)
			}
		}
	}
	return nil
}

// stronglyConnected is Tarjan's algorithm over the (sorted) node list.
func stronglyConnected(nodes []string, adj map[string][]string) [][]string {
	index := make(map[string]int, len(nodes))
	low := make(map[string]int, len(nodes))
	onStack := make(map[string]bool, len(nodes))
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
