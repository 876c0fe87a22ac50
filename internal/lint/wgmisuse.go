package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WGMisuse flags the WaitGroup and lock-copy mistakes `go vet`'s
// intraprocedural copylocks pass cannot see, using the interprocedural
// summaries (SyncsParam, AddsWGParam; see concsummary.go):
//
//   - WaitGroup.Add inside the spawned goroutine (directly, or by passing
//     the WaitGroup to a callee whose summary says it Adds): the spawner
//     can reach Wait before the goroutine has run Add, so Wait returns
//     while work is still in flight. Add must happen on the spawning
//     side, before the `go`.
//   - Add after a goroutine is already Waiting on the group (the Wait
//     lives inside an earlier `go` closure in the same function): Wait
//     may have observed zero and returned; reuse races. Sequential
//     Add-after-Wait is legal WaitGroup reuse and is not flagged.
//   - a value whose type (transitively) contains a sync.Mutex, RWMutex,
//     WaitGroup, Cond or Once passed by value to a callee that
//     synchronizes on that parameter: the callee locks a copy, so the
//     synchronization protects nothing. vet's copylocks sees the copy;
//     only the summary knows the callee actually syncs on it.
//   - a value-receiver method that locks or Adds on receiver state: every
//     call synchronizes on a fresh copy of the receiver.
var WGMisuse = &Analyzer{
	Name: "wgmisuse",
	Doc:  "flags WaitGroup.Add inside the spawned goroutine, Add racing an async Wait, and lock/WaitGroup values copied into callees that synchronize on them (interprocedural, beyond vet copylocks)",
	Run:  runWGMisuse,
}

func runWGMisuse(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	pkg := prog.packageOf(pass.Pkg)
	if pkg == nil {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkValueReceiverSync(pass, fd)
			checkWGFlow(pass, prog, fd)
		}
	}
}

// containsSyncLock reports whether t transitively holds sync state that
// must not be copied. Pointers, maps, channels and interfaces break the
// chain — copying a reference is fine.
func containsSyncLock(t types.Type) bool {
	seen := map[types.Type]bool{}
	var walk func(t types.Type) bool
	walk = func(t types.Type) bool {
		if t == nil || seen[t] {
			return false
		}
		seen[t] = true
		switch name := syncTypeName(t); name {
		case "Mutex", "RWMutex", "WaitGroup", "Cond", "Once":
			// A *sync.Mutex value is a reference; only the bare type counts.
			if _, isPtr := t.(*types.Pointer); !isPtr {
				return true
			}
			return false
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if walk(u.Field(i).Type()) {
					return true
				}
			}
		case *types.Array:
			return walk(u.Elem())
		}
		return false
	}
	return walk(t)
}

// checkValueReceiverSync flags a value-receiver method whose body performs
// a sync operation on receiver state of a lock-containing type.
func checkValueReceiverSync(pass *Pass, fd *ast.FuncDecl) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return
	}
	if _, isPtr := fd.Recv.List[0].Type.(*ast.StarExpr); isPtr {
		return
	}
	recvObj := pass.Info.Defs[fd.Recv.List[0].Names[0]]
	if recvObj == nil || !containsSyncLock(recvObj.Type()) {
		return
	}
	reported := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported {
			return !reported
		}
		var recv ast.Expr
		if _, r, isMu := mutexOp(pass.Info, call); isMu {
			recv = r
		} else if _, r, isWG := wgOp(pass.Info, call); isWG {
			recv = r
		} else {
			return true
		}
		if baseIdentObj(pass.Info, recv) == recvObj {
			reported = true
			pass.Report(call.Pos(), nil,
				"method %s has a value receiver but synchronizes on receiver state: every call locks a fresh copy, protecting nothing — use a pointer receiver (wgmisuse)",
				fd.Name.Name)
			return false
		}
		return true
	})
}

// derefText renders an argument for messages with any leading & stripped:
// the finding is about the WaitGroup, not the pointer to it.
func derefText(e ast.Expr) string {
	if u, ok := unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return exprText(u.X)
	}
	return exprText(e)
}

// wgAddSite is one non-spawned WaitGroup.Add observed during the flow walk.
type wgAddSite struct {
	obj types.Object
	pos token.Pos
}

// checkWGFlow walks one function tracking spawned-goroutine context for
// the Add-in-goroutine and Add-after-async-Wait rules and the
// copied-lock-argument rule.
func checkWGFlow(pass *Pass, prog *Program, fd *ast.FuncDecl) {
	var adds []wgAddSite
	asyncWait := map[types.Object]token.Pos{} // wg obj -> pos of the `go` spawning its Waiter

	declaredOutside := func(obj types.Object, lit *ast.FuncLit) bool {
		return obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() >= lit.End())
	}

	// checkCall handles a call in context: copied-lock args always, and
	// the interprocedural Add when the call runs on a spawned goroutine.
	checkCall := func(call *ast.CallExpr, goLit *ast.FuncLit, isGoCall bool) {
		callee := prog.Funcs[staticCalleeKey(pass.Info, call)]
		if callee == nil || callee.Summary == nil {
			return
		}
		cs := callee.Summary
		for i, a := range call.Args {
			if i >= len(cs.SyncsParam) {
				break
			}
			if cs.SyncsParam[i] {
				if t := pass.TypeOf(a); t != nil && containsSyncLock(t) {
					pass.Report(a.Pos(), nil,
						"%s is passed by value to %s, which synchronizes on that parameter: the callee locks a copy — pass a pointer (wgmisuse)",
						derefText(a), callee.Decl.Name.Name)
				}
			}
			if cs.AddsWGParam[i] && (isGoCall || goLit != nil) {
				obj := baseIdentObj(pass.Info, a)
				if isGoCall || declaredOutside(obj, goLit) {
					pass.Report(a.Pos(), nil,
						"WaitGroup %s reaches %s, which calls Add on it, from inside the spawned goroutine: the spawner can Wait before Add runs — Add before the go statement (wgmisuse)",
						derefText(a), callee.Decl.Name.Name)
				}
			}
		}
	}

	var walk func(n ast.Node, goLit *ast.FuncLit)
	walk = func(n ast.Node, goLit *ast.FuncLit) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				if lit, ok := unparen(m.Call.Fun).(*ast.FuncLit); ok {
					walk(lit.Body, lit)
				} else {
					checkCall(m.Call, goLit, true)
					for _, a := range m.Call.Args {
						walk(a, goLit)
					}
				}
				return false
			case *ast.FuncLit:
				// A non-go literal inherits the current context: a helper
				// closure defined inside a spawned goroutine still runs
				// there.
				walk(m.Body, goLit)
				return false
			case *ast.CallExpr:
				if name, recv, ok := wgOp(pass.Info, m); ok {
					obj := baseIdentObj(pass.Info, recv)
					switch name {
					case "Add":
						if goLit != nil && declaredOutside(obj, goLit) {
							pass.Report(m.Pos(), nil,
								"WaitGroup.Add inside the spawned goroutine: the spawner can Wait before this Add runs and return with work in flight — Add before the go statement (wgmisuse)")
						} else if goLit == nil && obj != nil {
							adds = append(adds, wgAddSite{obj: obj, pos: m.Pos()})
						}
					case "Wait":
						if goLit != nil && obj != nil {
							if _, ok := asyncWait[obj]; !ok {
								asyncWait[obj] = goLit.Pos()
							}
						}
					}
					return true
				}
				checkCall(m, goLit, false)
				return true
			}
			return true
		})
	}
	walk(fd.Body, nil)

	for _, add := range adds {
		if goPos, ok := asyncWait[add.obj]; ok && add.pos > goPos {
			pass.Report(add.pos, nil,
				"WaitGroup.Add after a goroutine is already Waiting on the group: Wait may have observed zero and returned — Add every count before the Waiter starts (wgmisuse)")
		}
	}
}
