package lint

import (
	"go/ast"
)

// GoroLife guards goroutine lifetimes on the serving arc, complementing
// timerleak: a daemon that spawns a goroutine per request (or per job)
// must tie each one's exit to something — the request context, a quit
// channel whose close it observes, or a loop that is bounded by
// construction (`for range ch` ends when the owner closes ch). A `go`
// site whose target can spin forever with no such exit accumulates one
// leaked goroutine per trigger; under load that is the slow memory leak
// the soak test exists to catch, found statically instead.
//
// The analyzer reports `go` statements in server-reachable functions
// whose target is Unbounded per its Summary (concsummary.go): the
// body — or an in-module callee on the body's path — contains an infinite
// `for` with no return, no break addressing it, no goto, and no
// terminating call (panic, os.Exit, runtime.Goexit, log.Fatal). A
// `for { select { case <-ctx.Done(): return ... } }` loop is bounded (the
// return escapes); a `for range ch` loop is bounded by the channel's
// close; a bare `for { work() }` is not. Deliberate daemon loops that
// outlive the spawner by design are recorded with
// //lint:ignore gorolife <reason> at the spawn site.
var GoroLife = &Analyzer{
	Name: "gorolife",
	Doc:  "flags goroutine spawns on server-reachable paths whose target can loop forever with no ctx.Done()/quit-channel return or bounded loop to end it",
	Run:  runGoroLife,
}

func runGoroLife(pass *Pass) {
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
			fi := prog.FuncOf(pkg, fd)
			if fi == nil || !prog.ServerReachable[fi.Key] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if target, unbounded := goTargetUnbounded(pass, prog, g); unbounded {
					pass.Report(g.Pos(), nil,
						"goroutine started here may never exit: %s loops forever with no return tied to ctx.Done(), a quit-channel close, or a bounded range — one leaked goroutine per trigger on a serving path (gorolife contract, DESIGN.md)",
						target)
				}
				return true
			})
		}
	}
}

// goTargetUnbounded classifies the target of one go statement.
func goTargetUnbounded(pass *Pass, prog *Program, g *ast.GoStmt) (string, bool) {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return "the closure", litUnbounded(pass, prog, lit)
	}
	callee := prog.Funcs[staticCalleeKey(pass.Info, g.Call)]
	if callee == nil || callee.Summary == nil {
		return "", false
	}
	return callee.Decl.Name.Name, callee.Summary.Unbounded
}

// litUnbounded reports whether a go'd closure can spin forever: an
// infinite escape-less `for` in its body, or a body-path call to an
// in-module callee whose summary is Unbounded. Nested literals are
// separate goroutine candidates (or stored closures) and are not this
// spawn's lifetime.
func litUnbounded(pass *Pass, prog *Program, lit *ast.FuncLit) bool {
	unbounded := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if unbounded {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if n.Cond == nil && !loopEscapes(n) {
				unbounded = true
				return false
			}
		case *ast.CallExpr:
			if fi := prog.Funcs[staticCalleeKey(pass.Info, n)]; fi != nil && fi.Summary != nil && fi.Summary.Unbounded {
				unbounded = true
				return false
			}
		}
		return true
	})
	return unbounded
}
