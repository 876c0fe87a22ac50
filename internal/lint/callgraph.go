package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the interprocedural substrate the cross-function
// analyzers (gridres, leasepath, atomicfield and the concurrency rules)
// stand on: a call graph over the loaded package set plus the bookkeeping
// needed to compute the per-function summaries bottom-up (see summary.go).
//
// Identity. Packages are type-checked independently against compiler
// export data (see load.go), so one function has *different* types.Func
// objects depending on whether it is seen from its defining package's
// source or through an importer. Nodes are therefore keyed by FuncKey — a
// stable, printable name derived from the package path, receiver type and
// function name — and every resolution goes through keyOf. String keys
// also make summaries and diagnostics trivially deterministic.
//
// Dynamic calls. A call through an interface is resolved against the
// method sets of the loaded packages: every in-module concrete method with
// the same name and an identical parameter/result signature (compared as
// package-path-qualified strings, which survives the split type universes)
// becomes a candidate edge. Candidate edges participate in
// goroutine-reachability but deliberately not in summary lookup — with
// several candidates the facts would have to be merged pessimistically,
// which in practice dissolves them.

// A FuncKey canonically names a function or method across the package set:
// "pkg/path.Name" for functions, "pkg/path.(Recv).Name" for methods.
type FuncKey string

// keyOf derives the canonical key of fn, or "" when fn has no package
// (builtins, error.Error on the universe interface).
func keyOf(fn *types.Func) FuncKey {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, isPtr := rt.(*types.Pointer); isPtr {
			rt = ptr.Elem()
		}
		if named, isNamed := rt.(*types.Named); isNamed {
			return FuncKey(fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name())
		}
		// Interface receiver or unnamed receiver type: key on the method
		// name alone under its package; these are resolution sources, not
		// graph nodes.
		return FuncKey(fn.Pkg().Path() + ".(?)." + fn.Name())
	}
	return FuncKey(fn.Pkg().Path() + "." + fn.Name())
}

// A FuncInfo is one call-graph node: a function or method declared in one
// of the loaded packages.
type FuncInfo struct {
	Key  FuncKey
	Decl *ast.FuncDecl
	Pkg  *Package

	// Callees holds the static out-edges; the value records whether some
	// call site spawns the callee on a new goroutine (`go f(...)`, or a
	// call inside a go'd closure).
	Callees map[FuncKey]bool
	// Dynamic holds method-set-resolved candidate targets of interface
	// calls made by this function.
	Dynamic map[FuncKey]bool
	// Spawns reports whether the body contains any `go` statement.
	Spawns bool

	// Summary holds the bottom-up facts (leases, parameter calls, grid
	// resolution, locks and sync operations); populated by
	// computeSummaries.
	Summary *Summary
}

// A Program is the interprocedural view of one analysis run: every loaded
// package, the call graph over them, and program-wide fact sets.
type Program struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Funcs map[FuncKey]*FuncInfo

	// GoroutineReachable marks functions that can run off the spawning
	// goroutine: transitive static callees of any `go` site or of a
	// function-typed parameter a callee invokes on a goroutine
	// (grid.ParallelFor's body).
	GoroutineReachable map[FuncKey]bool

	// ServerReachable marks functions on the serving surface: everything
	// declared in a package whose import path has a "server" or "core"
	// segment, plus the transitive static and candidate callees. The
	// ctxflow analyzer scopes its context-discipline checks to this set —
	// a CLI batch tool may sleep and detach freely; a daemon may not.
	ServerReachable map[FuncKey]bool

	// Hot is the lint.hot manifest of the run, nil when none was found;
	// GCFacts holds the parsed compiler diagnostics per manifest-covered
	// import path. Both are attached by the runner before passes start
	// (see Run) and consumed by the bce/escape/inline analyzers.
	Hot     *HotManifest
	GCFacts map[string]*GCFacts

	// AtomicFields maps a field key ("pkg/path.Type.Field") to the
	// positions where it is accessed through a sync/atomic call, across
	// the whole package set. See atomicfield.go.
	AtomicFields map[string][]token.Position

	// ConcFindings holds the precomputed lockorder diagnostics (lock-order
	// inversion cycles, locks held across blocking operations), keyed by
	// the import path of the package whose pass reports them. The lock
	// graph is global — an inversion can span packages — so the findings
	// are computed once, serially, before the parallel passes start; each
	// pass only copies out its own package's slice, which keeps the output
	// deterministic at any worker count. See concsummary.go.
	ConcFindings map[string][]concFinding

	// CondLockers maps a sync.Cond's stable key to its locker's lock key,
	// resolved from sync.NewCond(&mu) sites across the package set:
	// Cond.Wait atomically releases its own locker, so that lock is
	// exempt from the held-across-blocking check.
	CondLockers map[string]string
}

// BuildProgram constructs the call graph and computes summaries for the
// loaded packages. It is deterministic: iteration over packages and files
// follows load order, and every map consumed for output is sorted. dir is
// the base directory of the run, used to relativize the source positions
// embedded in lock-order cycle messages.
func BuildProgram(pkgs []*Package, fset *token.FileSet, dir string) *Program {
	prog := &Program{
		Fset:               fset,
		Pkgs:               pkgs,
		Funcs:              map[FuncKey]*FuncInfo{},
		GoroutineReachable: map[FuncKey]bool{},
		ServerReachable:    map[FuncKey]bool{},
		AtomicFields:       map[string][]token.Position{},
	}

	// Nodes: every declared function/method in the loaded set.
	for _, pkg := range pkgs {
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
				key := keyOf(fn)
				if key == "" {
					continue
				}
				prog.Funcs[key] = &FuncInfo{
					Key: key, Decl: fd, Pkg: pkg,
					Callees: map[FuncKey]bool{},
					Dynamic: map[FuncKey]bool{},
				}
			}
		}
	}

	// Edges + atomic-field collection.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				node := prog.Funcs[keyOf(fn)]
				if node == nil {
					continue
				}
				prog.collectEdges(node, fd.Body, false)
			}
		}
		prog.collectAtomicFields(pkg)
	}

	computeSummaries(prog)
	prog.computeGoroutineReachable()
	prog.computeServerReachable()
	collectConcFindings(prog, dir)
	return prog
}

// computeServerReachable floods the call graph from every function whose
// package path carries a "server" or "core" segment: the serving arc's
// entry surface plus everything it can execute.
func (p *Program) computeServerReachable() {
	var queue []FuncKey
	mark := func(k FuncKey) {
		if k != "" && !p.ServerReachable[k] {
			if _, ok := p.Funcs[k]; ok {
				p.ServerReachable[k] = true
				queue = append(queue, k)
			}
		}
	}
	for _, key := range p.sortedFuncKeys() {
		if hasPathSegment(p.Funcs[key].Pkg.Path, "server", "core") {
			mark(key)
		}
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		fi := p.Funcs[k]
		for callee := range fi.Callees {
			mark(callee)
		}
		for callee := range fi.Dynamic {
			mark(callee)
		}
	}
}

// hasPathSegment reports whether any "/"-separated segment of an import
// path equals one of segs.
func hasPathSegment(path string, segs ...string) bool {
	for _, part := range strings.Split(path, "/") {
		for _, s := range segs {
			if part == s {
				return true
			}
		}
	}
	return false
}

// collectEdges walks body recording call edges of node. spawned marks the
// walk as running on a new goroutine (inside a go'd closure): every edge
// found there is a spawn edge.
func (p *Program) collectEdges(node *FuncInfo, body ast.Node, spawned bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			p.recordCall(node, n.Call, true)
			if lit, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
				p.collectEdges(node, lit.Body, true)
			} else {
				for _, a := range n.Call.Args {
					p.collectEdges(node, a, true)
				}
			}
			return false
		case *ast.CallExpr:
			p.recordCall(node, n, spawned)
			return true
		}
		return true
	})
}

// recordCall resolves one call site to static or dynamic edges.
func (p *Program) recordCall(node *FuncInfo, call *ast.CallExpr, spawned bool) {
	if spawned {
		node.Spawns = true
	}
	info := node.Pkg.Info
	fun := unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			p.addEdge(node, keyOf(fn), spawned)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if types.IsInterface(sel.Recv()) {
				for _, target := range p.methodSetTargets(fn) {
					node.Dynamic[target] = true
					if spawned {
						// An interface call from a spawned context still
						// reaches its candidates on that goroutine.
						p.addEdge(node, target, true)
					}
				}
				return
			}
			p.addEdge(node, keyOf(fn), spawned)
			return
		}
		// Package-qualified function: pkg.F(...).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			p.addEdge(node, keyOf(fn), spawned)
		}
	}
}

func (p *Program) addEdge(node *FuncInfo, callee FuncKey, spawned bool) {
	if callee == "" {
		return
	}
	if _, inModule := p.Funcs[callee]; !inModule {
		return
	}
	if spawned {
		node.Callees[callee] = true
	} else if _, seen := node.Callees[callee]; !seen {
		node.Callees[callee] = false
	}
}

// methodSetTargets resolves an interface method to every in-module
// concrete method with the same name and signature. Signatures are
// compared as package-path-qualified strings because the candidate and the
// interface method live in different type-checker universes, where
// types.Identical is too strict.
func (p *Program) methodSetTargets(ifaceMethod *types.Func) []FuncKey {
	wantName := ifaceMethod.Name()
	wantSig := sigString(ifaceMethod)
	var out []FuncKey
	for key, fi := range p.Funcs {
		if fi.Decl.Recv == nil || fi.Decl.Name.Name != wantName {
			continue
		}
		fn, ok := fi.Pkg.Info.Defs[fi.Decl.Name].(*types.Func)
		if !ok || sigString(fn) != wantSig {
			continue
		}
		out = append(out, key)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sigString renders a function's parameter and result types (receiver
// excluded) with full package paths, stable across type universes.
func sigString(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	qual := func(pkg *types.Package) string { return pkg.Path() }
	var b strings.Builder
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	b.WriteByte(')')
	return b.String()
}

// computeGoroutineReachable floods the call graph from every spawn edge:
// a function is goroutine-reachable when some call path ends in a `go`
// site targeting it, or when it is invoked as a function-typed argument of
// a callee that runs its parameter on a goroutine (CallsParamGo — the
// grid.ParallelFor shape).
func (p *Program) computeGoroutineReachable() {
	var queue []FuncKey
	mark := func(k FuncKey) {
		if k != "" && !p.GoroutineReachable[k] {
			if _, ok := p.Funcs[k]; ok {
				p.GoroutineReachable[k] = true
				queue = append(queue, k)
			}
		}
	}
	// Roots: direct spawn edges, plus function-literal/param hand-offs to
	// callees that invoke their parameter on a goroutine.
	keys := p.sortedFuncKeys()
	for _, key := range keys {
		fi := p.Funcs[key]
		for callee, spawned := range fi.Callees {
			if spawned {
				mark(callee)
			}
		}
	}
	for _, key := range keys {
		fi := p.Funcs[key]
		p.markParamGoHandoffs(fi, mark)
	}
	// Flood: everything a goroutine-reachable function calls is too.
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		fi := p.Funcs[k]
		for callee := range fi.Callees {
			mark(callee)
		}
		for callee := range fi.Dynamic {
			mark(callee)
		}
	}
}

// markParamGoHandoffs finds call sites in fi passing a named in-module
// function where the callee's summary says that parameter is invoked on a
// goroutine, and marks the passed function. Function literals are covered
// separately: their bodies' edges were attributed to the enclosing
// function, which markBodyGoroutine handles during summary use.
func (p *Program) markParamGoHandoffs(fi *FuncInfo, mark func(FuncKey)) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		calleeKey := staticCalleeKey(info, call)
		callee := p.Funcs[calleeKey]
		if callee == nil || callee.Summary == nil {
			return true
		}
		for i, a := range call.Args {
			if i >= len(callee.Summary.CallsParamGo) || !callee.Summary.CallsParamGo[i] {
				continue
			}
			switch arg := unparen(a).(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[arg].(*types.Func); ok {
					mark(keyOf(fn))
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[arg.Sel].(*types.Func); ok {
					mark(keyOf(fn))
				}
			case *ast.FuncLit:
				// The literal's call edges already live on fi; re-walk the
				// literal body marking its static callees as reachable.
				ast.Inspect(arg.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if k := staticCalleeKey(info, c); k != "" {
							mark(k)
						}
					}
					return true
				})
			}
		}
		return true
	})
}

// staticCalleeKey resolves call to an in-module function key, or "".
func staticCalleeKey(info *types.Info, call *ast.CallExpr) FuncKey {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return keyOf(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok && !types.IsInterface(sel.Recv()) {
				return keyOf(fn)
			}
			return ""
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return keyOf(fn)
		}
	}
	return ""
}

// sortedFuncKeys returns every node key in sorted order: the deterministic
// iteration base for everything derived from the Funcs map.
func (p *Program) sortedFuncKeys() []FuncKey {
	keys := make([]FuncKey, 0, len(p.Funcs))
	for k := range p.Funcs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// sccOrder returns the strongly connected components of the static call
// graph in bottom-up (callees before callers) order, seeded in sorted key
// order for determinism.
func (p *Program) sccOrder() [][]FuncKey {
	return tarjan(p.sortedFuncKeys(), func(v FuncKey) []FuncKey {
		callees := make([]FuncKey, 0, len(p.Funcs[v].Callees))
		for c := range p.Funcs[v].Callees {
			callees = append(callees, c)
		}
		sort.Slice(callees, func(i, j int) bool { return callees[i] < callees[j] })
		return callees
	})
}

// tarjan returns the strongly connected components of the graph that succ
// describes, visiting roots and successors in the order given. Components
// come out in reverse topological order of the condensation — every
// component after the components it reaches — which is exactly the
// bottom-up order summaries need.
func tarjan[K comparable](roots []K, succ func(K) []K) [][]K {
	index := map[K]int{}
	low := map[K]int{}
	onStack := map[K]bool{}
	var stack []K
	var sccs [][]K
	next := 0

	var connect func(v K)
	connect = func(v K) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succ(v) {
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []K
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
	for _, k := range roots {
		if _, seen := index[k]; !seen {
			connect(k)
		}
	}
	return sccs
}

// packageOf maps a *types.Package back to its loaded Package, or nil.
func (p *Program) packageOf(tp *types.Package) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.Types == tp {
			return pkg
		}
	}
	return nil
}

// FuncOf resolves the node enclosing pos within pkg, or nil.
func (p *Program) FuncOf(pkg *Package, fd *ast.FuncDecl) *FuncInfo {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return p.Funcs[keyOf(fn)]
}

// SummaryFor returns the summary of an in-module static callee of call, or
// nil: the single hook analyzers use to follow facts through a call.
func (p *Program) SummaryFor(pkg *Package, call *ast.CallExpr) *Summary {
	fi := p.Funcs[staticCalleeKey(pkg.Info, call)]
	if fi == nil {
		return nil
	}
	return fi.Summary
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
