package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the concurrency-protocol substrate the serving-era rules
// (lockorder, chanprotocol, wgmisuse, gorolife) stand on. Its walker fills
// the concurrency facts of each function's Summary (and the CallsParam
// facts, in the same walk) inside the one bottom-up SCC fixpoint of
// summary.go; after the fixpoint and the reachability floods, one final
// pass re-walks every function against the converged summaries and folds
// the lock-acquisition orders into a global lock-order graph whose
// inversion cycles are reported as potential deadlocks.
//
// Lock identity. Mutexes are keyed by stable source paths, not instances:
// a field lock is "pkg/path.(Type).field", a package-level lock is
// "pkg/path.name", a mutex embedded in a named type is "pkg/path.(Type)",
// and a local or parameter mutex is "<funcKey>.$name". Type-level keying
// deliberately conflates two instances of the same field (per-job locks in
// a pool); that is the standard static-deadlock trade-off — a reported
// cycle over one instance path is worth auditing even when the instances
// at runtime differ, and a reasoned //lint:ignore records the audit.
//
// Held-set semantics. The walk tracks a may-held set: cloned at branches
// and merged by union, so a lock acquired on either arm is considered held
// after the join. Deferred Unlocks (direct or inside a deferred closure)
// discharge the hold at function exit but keep it held through the body —
// exactly the `mu.Lock(); defer mu.Unlock()` idiom. A `go` closure runs on
// its own goroutine: it starts with an empty held set and its acquisitions
// do not count as acquisitions of the spawning function (no ordering edge
// exists between a spawner's locks and its goroutine's).

// A lockEdge is one witnessed acquisition order: while key From was held,
// key To was acquired (directly, or through the call at Pos).
type lockEdge struct {
	From, To string
	Pos      token.Pos
	Fn       FuncKey // function containing the witness
	Read     bool    // both sides are read-acquisitions (RLock)
}

// A concFinding is one precomputed lockorder diagnostic, assigned to the
// package whose pass will report it.
type concFinding struct {
	pos  token.Pos
	rule string
	msg  string
}

// stripPtr removes pointer layers.
func stripPtr(t types.Type) types.Type {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// syncTypeName returns the sync package type name of t (pointers stripped),
// or "" when t is not a sync type.
func syncTypeName(t types.Type) string {
	named, ok := stripPtr(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return ""
	}
	return obj.Name()
}

// namedKey renders "pkg/path.(Type)" for a named type, or "".
func namedKey(t types.Type) string {
	named, ok := stripPtr(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + ".(" + named.Obj().Name() + ")"
}

// lockKeyOf derives the stable identity of the lock expression e (the
// receiver of a Lock/Unlock call): field path, package-level var, embedded
// named type, or function-scoped local/parameter. "" means untrackable.
func lockKeyOf(info *types.Info, fnKey FuncKey, e ast.Expr) string {
	e = unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		obj := info.ObjectOf(e.Sel)
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if !v.IsField() {
			// Package-qualified package-level var: otherpkg.Mu.
			if v.Pkg() != nil && isPackageLevel(v) {
				return v.Pkg().Path() + "." + v.Name()
			}
			return ""
		}
		if sel, ok := info.Selections[e]; ok {
			if key := namedKey(sel.Recv()); key != "" {
				return key + "." + v.Name()
			}
		}
		return ""
	case *ast.Ident:
		v, ok := info.ObjectOf(e).(*types.Var)
		if !ok {
			return ""
		}
		if isPackageLevel(v) {
			if v.Pkg() == nil {
				return ""
			}
			return v.Pkg().Path() + "." + v.Name()
		}
		if syncTypeName(v.Type()) == "" {
			// A named type embedding the mutex: s.Lock() resolves to the
			// embedded sync.Mutex; the lock's identity is the type itself.
			return namedKey(v.Type())
		}
		// Local or parameter mutex: identity scoped to this function.
		return string(fnKey) + ".$" + v.Name()
	}
	return ""
}

// mutexOp classifies call as a sync.Mutex/RWMutex method invocation.
// op is one of "lock", "rlock", "unlock", "runlock"; recv is the receiver
// expression carrying the lock's identity.
func mutexOp(info *types.Info, call *ast.CallExpr) (op string, recv ast.Expr, ok bool) {
	mi, isMethod := methodInfoOf(info, call)
	if !isMethod || mi.pkg != "sync" || (mi.typ != "Mutex" && mi.typ != "RWMutex") {
		return "", nil, false
	}
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	switch mi.name {
	case "Lock":
		return "lock", sel.X, true
	case "RLock":
		return "rlock", sel.X, true
	case "Unlock":
		return "unlock", sel.X, true
	case "RUnlock":
		return "runlock", sel.X, true
	}
	// TryLock/TryRLock acquire only on one branch of their result; tracking
	// them as unconditional acquisitions would fabricate held state.
	return "", nil, false
}

// wgOp classifies call as a sync.WaitGroup method invocation.
func wgOp(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	mi, isMethod := methodInfoOf(info, call)
	if !isMethod || mi.pkg != "sync" || mi.typ != "WaitGroup" {
		return "", nil, false
	}
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	return mi.name, sel.X, true
}

// baseIdentObj resolves the leftmost identifier of e (&s.mu → s, wg → wg),
// or nil.
func baseIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// blockingCall classifies call as a blocking operation a lock must not be
// held across on a serving path: condition waits, WaitGroup waits, and the
// recognizable network/file I/O surface. The list is deliberately a
// heuristic vocabulary, not a completeness claim.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if mi, ok := methodInfoOf(info, call); ok {
		switch {
		case mi.pkg == "sync" && mi.typ == "WaitGroup" && mi.name == "Wait":
			return "sync.WaitGroup.Wait", true
		case mi.pkg == "net/http" && mi.typ == "Client":
			switch mi.name {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "http.Client." + mi.name, true
			}
		case mi.pkg == "os" && mi.typ == "File":
			switch mi.name {
			case "Read", "ReadAt", "Write", "WriteAt", "Sync", "ReadFrom", "WriteTo":
				return "os.File." + mi.name, true
			}
		}
		return "", false
	}
	if pkg, name, ok := pkgFuncOf(info, call); ok {
		switch pkg {
		case "net":
			switch name {
			case "Dial", "DialTimeout", "Listen", "ListenPacket":
				return "net." + name, true
			}
		case "net/http":
			switch name {
			case "Get", "Post", "PostForm", "Head":
				return "http." + name, true
			}
		case "os":
			switch name {
			case "ReadFile", "WriteFile", "Open", "OpenFile", "Create":
				return "os." + name, true
			}
		case "io":
			switch name {
			case "Copy", "CopyN", "ReadAll":
				return "io." + name, true
			}
		}
	}
	return "", false
}

// heldLock is one entry of the may-held set.
type heldLock struct {
	pos  token.Pos
	read bool
}

func cloneHeld(h map[string]heldLock) map[string]heldLock {
	c := make(map[string]heldLock, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// joinHeld merges branch state b into a under may-held semantics; a's
// witness wins on conflict.
func joinHeld(a, b map[string]heldLock) {
	for k, v := range b {
		if _, ok := a[k]; !ok {
			a[k] = v
		}
	}
}

// sortedHeld returns the held keys in sorted order for deterministic edge
// and message generation.
func sortedHeld(h map[string]heldLock) []string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// A concWalker walks one function's body tracking the may-held lock set.
// Phase one (emit=false) fills the concurrency and CallsParam facts of the
// function's Summary inside the summary fixpoint; phase two (emit=true)
// re-walks against converged summaries, recording lock-order edges and
// held-across-blocking findings.
//
// The CallsParam facts cover every call in the body, including the
// sub-trees the lock walk skips (a call's function expression, switch case
// lists, range keys, a deferred call, a go'd literal's arguments). Those
// are walked in param-only mode, which records CallsParam facts and
// nothing else. A go statement's target, its arguments and a go'd
// literal's body count as spawned for CallsParamGo; for the lock facts
// only the go'd literal's body runs on the new goroutine.
type concWalker struct {
	prog *Program
	fi   *FuncInfo
	sum  *Summary

	emit         bool
	serverReach  bool
	edges        *[]lockEdge
	findings     *[]concFinding
	deferRelease map[string]bool
	noExit       int // >0 inside closures whose returns are not function exits
	goArg        int // >0 inside a go statement's arguments or go'd literal
	paramOnly    int // >0 inside sub-trees walked for CallsParam facts alone
}

func newConcWalker(prog *Program, fi *FuncInfo, sum *Summary) *concWalker {
	return &concWalker{prog: prog, fi: fi, sum: sum, deferRelease: map[string]bool{}}
}

func (w *concWalker) walk() {
	held := map[string]heldLock{}
	w.stmt(w.fi.Decl.Body, held, false)
	w.exit(held)
}

// exit records which locks may still be held when the function returns.
func (w *concWalker) exit(held map[string]heldLock) {
	if w.noExit > 0 {
		return
	}
	for k, h := range held {
		if w.deferRelease[k] {
			continue
		}
		if _, ok := w.sum.HoldsOnExit[k]; !ok {
			w.sum.HoldsOnExit[k] = h.pos
		}
	}
}

// acquire registers taking key at pos with the current held set: edges from
// every held lock (phase two), summary facts (phase one), and the new hold.
func (w *concWalker) acquire(key string, pos token.Pos, read, spawned bool, held map[string]heldLock) {
	if w.emit {
		for _, h := range sortedHeld(held) {
			*w.edges = append(*w.edges, lockEdge{
				From: h, To: key, Pos: pos, Fn: w.fi.Key,
				Read: read && held[h].read,
			})
		}
	}
	if !spawned {
		if _, ok := w.sum.Acquires[key]; !ok {
			w.sum.Acquires[key] = pos
		}
	}
	if _, ok := held[key]; !ok {
		held[key] = heldLock{pos: pos, read: read}
	}
}

// blocking reports op at pos when any lock is held on a server-reachable
// path (phase two only).
func (w *concWalker) blocking(pos token.Pos, op string, held map[string]heldLock) {
	if !w.emit || !w.serverReach || len(held) == 0 {
		return
	}
	keys := sortedHeld(held)
	label := shortLockKey(keys[0])
	if len(keys) > 1 {
		label += " (+" + itoa(len(keys)-1) + " more)"
	}
	*w.findings = append(*w.findings, concFinding{
		pos:  pos,
		rule: "lockorder",
		msg: "lock " + label + " is held across " + op +
			" on a server-reachable path: a blocked holder stalls every other acquirer — release the lock first or bound the wait (lockorder contract, DESIGN.md)",
	})
}

// shortLockKey trims the import-path prefix for readable messages:
// "repro/internal/server.(Job).mu" → "server.(Job).mu".
func shortLockKey(key string) string {
	// The key's function-local form embeds a FuncKey; both forms shorten
	// the same way — keep everything after the last path separator.
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// paramOf returns the declared-parameter index that e names, or -1. When
// direct, e itself must be the parameter; otherwise its base identifier
// counts (&s.wg, s.mu and p[k] name s and p).
func (w *concWalker) paramOf(e ast.Expr, direct bool) int {
	info := w.fi.Pkg.Info
	var obj types.Object
	if direct {
		id, ok := unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		obj = info.ObjectOf(id)
	} else {
		obj = baseIdentObj(info, e)
	}
	if obj == nil {
		return -1
	}
	return paramIndex(info, w.fi.Decl, obj)
}

// calleeParams maps a callee's parameter facts to the walked function's
// parameters: it calls f(ai, i) for each argument ai of call that names
// parameter i (see paramOf for direct).
func (w *concWalker) calleeParams(call *ast.CallExpr, cs *Summary, direct bool, f func(ai, i int)) {
	for ai, a := range call.Args {
		if ai >= cs.NumParams {
			break
		}
		if i := w.paramOf(a, direct); i >= 0 {
			f(ai, i)
		}
	}
}

// markSyncParam records a sync operation on the parameter recv names.
func (w *concWalker) markSyncParam(recv ast.Expr, wgAdd bool) {
	if i := w.paramOf(recv, false); i >= 0 {
		w.sum.SyncsParam[i] = true
		if wgAdd {
			w.sum.AddsWGParam[i] = true
		}
	}
}

// paramCall records the CallsParam facts of one call: a parameter invoked
// directly, or handed to a callee position the callee invokes. spawned
// marks the call as running on a new goroutine.
func (w *concWalker) paramCall(call *ast.CallExpr, spawned bool) {
	if w.emit {
		return
	}
	spawned = spawned || w.goArg > 0
	if i := w.paramOf(call.Fun, true); i >= 0 {
		w.sum.CallsParam[i] = true
		if spawned {
			w.sum.CallsParamGo[i] = true
		}
	}
	cs := w.prog.SummaryFor(w.fi.Pkg, call)
	if cs == nil {
		return
	}
	w.calleeParams(call, cs, true, func(ai, i int) {
		if cs.CallsParam[ai] {
			w.sum.CallsParam[i] = true
			if spawned || cs.CallsParamGo[ai] {
				w.sum.CallsParamGo[i] = true
			}
		}
	})
}

// paramOnlyExpr walks e in param-only mode. The mode has no lock or sync
// effects, so held is left as it was.
func (w *concWalker) paramOnlyExpr(e ast.Expr, held map[string]heldLock, spawned bool) {
	if w.emit || e == nil {
		return
	}
	w.paramOnly++
	w.expr(e, held, spawned)
	w.paramOnly--
}

// call processes one call expression against the current held set.
func (w *concWalker) call(call *ast.CallExpr, held map[string]heldLock, spawned bool) {
	info := w.fi.Pkg.Info
	w.paramCall(call, spawned)
	w.paramOnlyExpr(call.Fun, held, spawned)
	for _, a := range call.Args {
		w.expr(a, held, spawned)
	}
	if w.paramOnly > 0 {
		return
	}

	if op, recv, ok := mutexOp(info, call); ok {
		key := lockKeyOf(info, w.fi.Key, recv)
		if key == "" {
			return
		}
		switch op {
		case "lock", "rlock":
			w.acquire(key, call.Pos(), op == "rlock", spawned, held)
			w.markSyncParam(recv, false)
		case "unlock", "runlock":
			delete(held, key)
		}
		return
	}
	if name, recv, ok := wgOp(info, call); ok {
		w.markSyncParam(recv, name == "Add")
		if name == "Wait" {
			w.blocking(call.Pos(), "sync.WaitGroup.Wait", held)
		}
		return
	}
	if mi, ok := methodInfoOf(info, call); ok && mi.pkg == "sync" && mi.typ == "Cond" && mi.name == "Wait" {
		// Cond.Wait atomically unlocks its own locker while parked, so
		// only *other* held locks are a stall hazard. An unresolvable
		// cond (no NewCond site seen) conservatively exempts nothing.
		heldOther := held
		if sel, isSel := unparen(call.Fun).(*ast.SelectorExpr); isSel {
			condKey := lockKeyOf(info, w.fi.Key, sel.X)
			if locker, ok := w.prog.CondLockers[condKey]; ok {
				heldOther = cloneHeld(held)
				delete(heldOther, locker)
			}
		}
		w.blocking(call.Pos(), "sync.Cond.Wait", heldOther)
		return
	}
	if op, ok := blockingCall(info, call); ok {
		w.blocking(call.Pos(), op, held)
		return
	}

	cs := w.prog.SummaryFor(w.fi.Pkg, call)
	if cs == nil {
		return
	}
	if w.emit && len(held) > 0 && len(cs.Acquires) > 0 {
		acq := make([]string, 0, len(cs.Acquires))
		for k := range cs.Acquires {
			acq = append(acq, k)
		}
		sort.Strings(acq)
		for _, h := range sortedHeld(held) {
			for _, to := range acq {
				*w.edges = append(*w.edges, lockEdge{From: h, To: to, Pos: call.Pos(), Fn: w.fi.Key, Read: held[h].read})
			}
		}
	}
	if !spawned {
		for k := range cs.Acquires {
			if _, ok := w.sum.Acquires[k]; !ok {
				w.sum.Acquires[k] = call.Pos()
			}
		}
		if cs.Unbounded && w.noExit == 0 {
			w.sum.Unbounded = true
		}
	}
	// Locks a callee leaves held (lock helpers) join the caller's held set.
	for k := range cs.HoldsOnExit {
		if _, ok := held[k]; !ok {
			held[k] = heldLock{pos: call.Pos()}
		}
	}
	// Parameter sync facts travel through the call.
	w.calleeParams(call, cs, false, func(ai, i int) {
		if cs.SyncsParam[ai] {
			w.sum.SyncsParam[i] = true
		}
		if cs.AddsWGParam[ai] {
			w.sum.AddsWGParam[i] = true
		}
	})
}

// expr walks an expression, dispatching calls, receives, and closures.
func (w *concWalker) expr(e ast.Expr, held map[string]heldLock, spawned bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n, held, spawned)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.blocking(n.Pos(), "channel receive", held)
			}
			return true
		case *ast.FuncLit:
			// A plain literal runs synchronously in the common callback
			// shapes; walk it against the current held set, but its returns
			// are not function exits.
			w.noExit++
			w.stmt(n.Body, held, spawned)
			w.noExit--
			return false
		}
		return true
	})
}

// stmt walks one statement under may-held semantics.
func (w *concWalker) stmt(s ast.Stmt, held map[string]heldLock, spawned bool) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, sub := range s.List {
			w.stmt(sub, held, spawned)
		}
	case *ast.ExprStmt:
		w.expr(s.X, held, spawned)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, held, spawned)
		}
		for _, l := range s.Lhs {
			w.expr(l, held, spawned)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held, spawned)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, held, spawned)
		}
		w.exit(held)
	case *ast.SendStmt:
		w.expr(s.Chan, held, spawned)
		w.expr(s.Value, held, spawned)
		w.blocking(s.Arrow, "channel send", held)
	case *ast.IfStmt:
		w.stmt(s.Init, held, spawned)
		w.expr(s.Cond, held, spawned)
		thenHeld := cloneHeld(held)
		w.stmt(s.Body, thenHeld, spawned)
		elseHeld := cloneHeld(held)
		w.stmt(s.Else, elseHeld, spawned)
		joinHeld(thenHeld, elseHeld)
		for k := range held {
			delete(held, k)
		}
		joinHeld(held, thenHeld)
	case *ast.ForStmt:
		// An infinite loop makes this function unbounded only on its own
		// control flow — not inside a spawned goroutine (that is the
		// goroutine's lifetime, judged at its own spawn site) and not
		// inside a stored closure.
		if s.Cond == nil && !spawned && w.noExit == 0 && !loopEscapes(s) {
			w.sum.Unbounded = true
		}
		w.stmt(s.Init, held, spawned)
		w.expr(s.Cond, held, spawned)
		body := cloneHeld(held)
		w.stmt(s.Body, body, spawned)
		w.stmt(s.Post, body, spawned)
		joinHeld(held, body)
	case *ast.RangeStmt:
		w.paramOnlyExpr(s.Key, held, spawned)
		w.paramOnlyExpr(s.Value, held, spawned)
		w.expr(s.X, held, spawned)
		body := cloneHeld(held)
		w.stmt(s.Body, body, spawned)
		joinHeld(held, body)
	case *ast.SwitchStmt:
		w.stmt(s.Init, held, spawned)
		w.expr(s.Tag, held, spawned)
		w.caseArms(s.Body, held, spawned)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, held, spawned)
		w.stmt(s.Assign, held, spawned)
		w.caseArms(s.Body, held, spawned)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.blocking(s.Select, "select", held)
		}
		var merged map[string]heldLock
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			arm := cloneHeld(held)
			// The comm op itself: sends/receives in comms are covered by
			// the select-level blocking report, so walk only nested calls.
			if cc.Comm != nil {
				w.commExprs(cc.Comm, arm, spawned)
			}
			for _, sub := range cc.Body {
				w.stmt(sub, arm, spawned)
			}
			if merged == nil {
				merged = arm
			} else {
				joinHeld(merged, arm)
			}
		}
		joinHeld(held, merged)
	case *ast.DeferStmt:
		// The deferred call's parameter facts (target, arguments, literal
		// body) come from one param-only walk of the whole call; the lock
		// walk below sees only what runs at exit.
		w.paramOnlyExpr(s.Call, held, spawned)
		if w.paramOnly > 0 {
			return
		}
		if op, recv, ok := mutexOp(w.fi.Pkg.Info, s.Call); ok && (op == "unlock" || op == "runlock") {
			if key := lockKeyOf(w.fi.Pkg.Info, w.fi.Key, recv); key != "" {
				w.deferRelease[key] = true
			}
			return
		}
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			// Unlocks anywhere in a deferred closure discharge the hold at
			// exit; the closure's other effects run against a throwaway
			// clone (it executes after the body).
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				if op, recv, ok := mutexOp(w.fi.Pkg.Info, call); ok && (op == "unlock" || op == "runlock") {
					if key := lockKeyOf(w.fi.Pkg.Info, w.fi.Key, recv); key != "" {
						w.deferRelease[key] = true
					}
				}
				return true
			})
			w.noExit++
			w.stmt(lit.Body, cloneHeld(held), spawned)
			w.noExit--
			return
		}
		for _, a := range s.Call.Args {
			w.expr(a, held, spawned)
		}
	case *ast.GoStmt:
		// The goroutine starts with no locks held and its acquisitions are
		// not the spawner's; only its internal ordering is recorded. The
		// arguments are evaluated by the spawner, so for the lock facts they
		// keep its context.
		w.paramCall(s.Call, true)
		w.goArg++
		if lit, ok := unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.noExit++
			w.stmt(lit.Body, map[string]heldLock{}, true)
			w.noExit--
			for _, a := range s.Call.Args {
				w.paramOnlyExpr(a, held, spawned)
			}
		} else {
			for _, a := range s.Call.Args {
				w.expr(a, held, spawned)
			}
		}
		w.goArg--
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held, spawned)
	case *ast.IncDecStmt:
		w.expr(s.X, held, spawned)
	}
}

// caseArms merges switch clause bodies under may-held union. The case
// expressions are walked for parameter facts only.
func (w *concWalker) caseArms(body *ast.BlockStmt, held map[string]heldLock, spawned bool) {
	var merged map[string]heldLock
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.paramOnlyExpr(e, held, spawned)
		}
		arm := cloneHeld(held)
		for _, sub := range cc.Body {
			w.stmt(sub, arm, spawned)
		}
		if merged == nil {
			merged = arm
		} else {
			joinHeld(merged, arm)
		}
	}
	joinHeld(held, merged)
}

// commExprs walks the nested expressions of a select comm op without
// re-reporting the comm itself as a blocking site.
func (w *concWalker) commExprs(comm ast.Stmt, held map[string]heldLock, spawned bool) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		w.expr(c.Chan, held, spawned)
		w.expr(c.Value, held, spawned)
	case *ast.ExprStmt:
		if u, ok := unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			w.expr(u.X, held, spawned)
			return
		}
		w.expr(c.X, held, spawned)
	case *ast.AssignStmt:
		for _, r := range c.Rhs {
			if u, ok := unparen(r).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				w.expr(u.X, held, spawned)
				continue
			}
			w.expr(r, held, spawned)
		}
		for _, l := range c.Lhs {
			w.paramOnlyExpr(l, held, spawned)
		}
	}
}

// loopEscapes reports whether an infinite `for` loop has any way out:
// a return, an unlabeled break addressing this loop, any labeled branch,
// a goto, or a terminating call (panic, os.Exit, runtime.Goexit,
// log.Fatal*). Nested function literals are opaque — their returns do not
// exit the loop.
func loopEscapes(loop *ast.ForStmt) bool {
	found := false
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if found || n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if found {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
				return false
			case *ast.BranchStmt:
				if m.Label != nil {
					found = true // conservatively an escape
					return false
				}
				if m.Tok == token.BREAK && depth == 0 {
					found = true
					return false
				}
				return false
			case *ast.ForStmt:
				walkNested(m, depth, walk)
				return false
			case *ast.RangeStmt:
				walk(m.Body, depth+1)
				return false
			case *ast.SwitchStmt:
				walk(m.Body, depth+1)
				return false
			case *ast.TypeSwitchStmt:
				walk(m.Body, depth+1)
				return false
			case *ast.SelectStmt:
				walk(m.Body, depth+1)
				return false
			case *ast.CallExpr:
				if isTerminatingCall(m) {
					found = true
					return false
				}
				return true
			}
			return true
		})
	}
	walk(loop.Body, 0)
	return found
}

// walkNested descends into a nested for loop: breaks inside it address it,
// not the outer loop, but returns still escape.
func walkNested(m *ast.ForStmt, depth int, walk func(ast.Node, int)) {
	walk(m.Init, depth)
	walk(m.Post, depth)
	walk(m.Body, depth+1)
}

// isTerminatingCall recognizes calls that never return normally.
func isTerminatingCall(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			switch {
			case id.Name == "os" && fun.Sel.Name == "Exit",
				id.Name == "runtime" && fun.Sel.Name == "Goexit",
				id.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Fatal"),
				id.Name == "log" && strings.HasPrefix(fun.Sel.Name, "Panic"):
				return true
			}
		}
	}
	return false
}

// collectCondLockers resolves every sync.NewCond(&lock) site in the
// package set to a (cond key -> locker key) pair, using the same stable
// key vocabulary as the lock graph. Conds whose locker expression is
// untrackable (or constructed indirectly) simply stay unresolved.
func collectCondLockers(prog *Program) map[string]string {
	out := map[string]string{}
	note := func(info *types.Info, target, value ast.Expr) {
		call, ok := unparen(value).(*ast.CallExpr)
		if !ok {
			return
		}
		pkg, name, ok := pkgFuncOf(info, call)
		if !ok || pkg != "sync" || name != "NewCond" || len(call.Args) != 1 {
			return
		}
		u, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return
		}
		locker := lockKeyOf(info, "", u.X)
		condKey := lockKeyOf(info, "", target)
		if locker != "" && condKey != "" {
			out[condKey] = locker
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i := range n.Lhs {
						note(pkg.Info, n.Lhs[i], n.Rhs[i])
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i < len(n.Values) {
							note(pkg.Info, name, n.Values[i])
						}
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						note(pkg.Info, key, n.Value)
					}
				}
				return true
			})
		}
	}
	return out
}

// collectConcFindings re-walks every function against the converged
// summaries, records the global lock-order edges, reports blocking sites,
// and folds edge inversions into per-package cycle diagnostics. dir is the
// base against which message positions are rendered.
func collectConcFindings(prog *Program, dir string) {
	prog.ConcFindings = map[string][]concFinding{}
	prog.CondLockers = collectCondLockers(prog)
	var edges []lockEdge
	for _, key := range prog.sortedFuncKeys() {
		fi := prog.Funcs[key]
		var findings []concFinding
		w := newConcWalker(prog, fi, newSummary(fi.Decl.Type.Params.NumFields()))
		w.emit = true
		w.serverReach = prog.ServerReachable[key]
		w.edges = &edges
		w.findings = &findings
		w.walk()
		if len(findings) > 0 {
			path := fi.Pkg.Path
			prog.ConcFindings[path] = append(prog.ConcFindings[path], findings...)
		}
	}
	reportLockCycles(prog, edges, dir)
}

// relPos renders pos as "file:line" relative to dir, matching the runner's
// diagnostic relativization so cycle messages are stable across checkouts.
func relPos(prog *Program, dir string, pos token.Pos) string {
	p := prog.Fset.Position(pos)
	name := p.Filename
	if dir == "" {
		dir = "."
	}
	if abs, err := filepath.Abs(dir); err == nil {
		if rel, err := filepath.Rel(abs, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
	}
	return name + ":" + itoa(p.Line)
}

// reportLockCycles finds strongly connected components of the lock-order
// graph and reports each once, with the full cycle and every edge's witness
// position. A self-edge (a lock acquired while already held) is its own
// finding unless both acquisitions are read-locks taken at the same site
// vocabulary — recursive RLock is still reported, since a concurrent writer
// deadlocks it, but with its own message.
func reportLockCycles(prog *Program, edges []lockEdge, dir string) {
	// First witness per (From, To) pair wins; input order is deterministic.
	first := map[[2]string]lockEdge{}
	var keys []string
	seen := map[string]bool{}
	note := func(k string) {
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	for _, e := range edges {
		pair := [2]string{e.From, e.To}
		if _, ok := first[pair]; !ok {
			first[pair] = e
		}
		note(e.From)
		note(e.To)
	}
	sort.Strings(keys)

	addFinding := func(e lockEdge, msg string) {
		fi := prog.Funcs[e.Fn]
		if fi == nil {
			return
		}
		path := fi.Pkg.Path
		prog.ConcFindings[path] = append(prog.ConcFindings[path], concFinding{
			pos: e.Pos, rule: "lockorder", msg: msg,
		})
	}

	// Self-deadlock: acquiring a lock already held on the same goroutine.
	for _, k := range keys {
		if e, ok := first[[2]string{k, k}]; ok {
			kind := "sync.Mutex self-deadlock"
			if e.Read {
				kind = "recursive RLock (deadlocks against a waiting writer)"
			}
			addFinding(e, "lock "+shortLockKey(k)+" is acquired at "+relPos(prog, dir, e.Pos)+
				" while already held: "+kind+" (lockorder contract, DESIGN.md)")
		}
	}

	// Order inversions: SCCs of the graph with more than one lock.
	adj := map[string][]string{}
	for pair := range first {
		if pair[0] != pair[1] {
			adj[pair[0]] = append(adj[pair[0]], pair[1])
		}
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	for _, scc := range lockSCCs(keys, adj) {
		if len(scc) < 2 {
			continue
		}
		cycle := findCycle(scc, adj)
		if len(cycle) == 0 {
			continue
		}
		var b strings.Builder
		b.WriteString("lock-order inversion (potential deadlock): ")
		for i := range cycle {
			from := cycle[i]
			to := cycle[(i+1)%len(cycle)]
			e := first[[2]string{from, to}]
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(shortLockKey(from) + " -> " + shortLockKey(to) +
				" at " + relPos(prog, dir, e.Pos))
		}
		b.WriteString(" (lockorder contract, DESIGN.md)")
		firstEdge := first[[2]string{cycle[0], cycle[1%len(cycle)]}]
		addFinding(firstEdge, b.String())
	}
}

// lockSCCs is Tarjan over the lock graph, seeded in sorted key order, with
// each component and the component list sorted.
func lockSCCs(keys []string, adj map[string][]string) [][]string {
	sccs := tarjan(keys, func(v string) []string { return adj[v] })
	for _, scc := range sccs {
		sort.Strings(scc)
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

// findCycle returns one cycle through the SCC starting from its smallest
// node, following sorted edges restricted to the component.
func findCycle(scc []string, adj map[string][]string) []string {
	in := map[string]bool{}
	for _, k := range scc {
		in[k] = true
	}
	start := scc[0]
	var path []string
	onPath := map[string]bool{}
	var dfs func(v string) []string
	dfs = func(v string) []string {
		path = append(path, v)
		onPath[v] = true
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start && len(path) > 1 {
				out := append([]string{}, path...)
				path = path[:len(path)-1]
				onPath[v] = false
				return out
			}
			if !onPath[w] {
				if out := dfs(w); out != nil {
					return out
				}
			}
		}
		path = path[:len(path)-1]
		onPath[v] = false
		return nil
	}
	return dfs(start)
}
