package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Summary is one function's interprocedural facts, computed bottom-up
// over the call graph (callees first, SCCs iterated to a fixpoint) so an
// analyzer can follow an invariant through a call without re-walking the
// callee. Parameter indices refer to declared parameters in order;
// receivers are not summarized (no repo invariant travels through one).
// The lease, grid-resolution and concurrency facts share the one fixpoint:
// each family reads only its own facts of the callees, so iterating them
// together reaches the same fixpoint each would reach alone.
type Summary struct {
	NumParams int

	// Lease facts (leasepath, scratchalias hand-off discipline):
	// Releases[i] — the function Puts parameter i back to its pool on
	// every path (a "release helper"); Returns[i] — some return statement
	// hands parameter i (or an alias) back to the caller; Escapes[i] —
	// some path stores parameter i beyond the call (field, global,
	// channel, container, or an escaping callee position).
	Releases []bool
	Returns  []bool
	Escapes  []bool

	// CallsParam[i] — the function invokes its i-th parameter;
	// CallsParamGo[i] — it does so on a spawned goroutine (the
	// grid.ParallelFor body shape). Feeds goroutine-reachability.
	CallsParam   []bool
	CallsParamGo []bool

	// Concurrency facts (lockorder, wgmisuse, gorolife; see
	// concsummary.go). Acquires maps every lock key the function may
	// acquire — directly or through any in-module callee — to a witness
	// position (the acquire site, or the call site that reaches it).
	// HoldsOnExit maps lock keys that may still be held when the function
	// returns (a Lock with no Unlock and no deferred Unlock): the "lock
	// helper" shape callers must account for. Witness positions are not
	// compared by the fixpoint; callers read only the keys.
	Acquires    map[string]token.Pos
	HoldsOnExit map[string]token.Pos
	// SyncsParam[i] — the function (transitively) performs a sync
	// operation (mutex Lock/RLock, WaitGroup Add/Wait/Done) on parameter i
	// or one of its fields; wgmisuse flags lock-bearing values copied into
	// such a callee. AddsWGParam[i] — it (transitively) calls
	// WaitGroup.Add on parameter i, which feeds the Add-inside-spawned-
	// goroutine rule across calls.
	SyncsParam  []bool
	AddsWGParam []bool
	// Unbounded — some path may never return: an infinite `for` with no
	// return/break/goto/panic escape, or a call to an unbounded callee.
	// gorolife reports `go` sites whose target is unbounded.
	Unbounded bool

	// Grid-resolution facts (gridres): SameRes constraints the body
	// imposes between grid-typed parameters, and the resolution level of
	// each result relative to a parameter, when derivable.
	SameRes []ResConstraint
	Results []ResultRes
}

// A ResConstraint requires level(param J) == level(param I) + Delta,
// where level counts coarsening steps (AvgPoolDown +1, Upsample −1).
type ResConstraint struct {
	I, J  int
	Delta int
}

// A ResultRes ties one result's resolution level to a parameter's:
// level(result) == level(param Param) + Delta.
type ResultRes struct {
	Result int
	Param  int
	Delta  int
}

// paramIndex returns the declared-parameter index of obj in fd (flattened
// across grouped fields), or -1.
func paramIndex(info *types.Info, fd *ast.FuncDecl, obj types.Object) int {
	if fd.Type.Params == nil {
		return -1
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return i
			}
			i++
		}
	}
	return -1
}

// computeSummaries runs the bottom-up fixpoint: strongly connected
// components of the static call graph are processed callees-first, and
// each component is re-summarized until its facts stop changing (facts are
// monotone — booleans only flip one way, constraints and lock keys only
// accumulate — so termination is structural, with a belt-and-braces
// iteration cap).
func computeSummaries(prog *Program) {
	for _, key := range prog.sortedFuncKeys() {
		fi := prog.Funcs[key]
		fi.Summary = newSummary(fi.Decl.Type.Params.NumFields())
	}
	for _, scc := range prog.sccOrder() {
		for iter := 0; iter < len(scc)+1; iter++ {
			changed := false
			for _, key := range scc {
				fi := prog.Funcs[key]
				next := summarize(prog, fi)
				if !fi.Summary.equal(next) {
					fi.Summary = next
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

func newSummary(n int) *Summary {
	return &Summary{
		NumParams:    n,
		Releases:     make([]bool, n),
		Returns:      make([]bool, n),
		Escapes:      make([]bool, n),
		CallsParam:   make([]bool, n),
		CallsParamGo: make([]bool, n),
		Acquires:     map[string]token.Pos{},
		HoldsOnExit:  map[string]token.Pos{},
		SyncsParam:   make([]bool, n),
		AddsWGParam:  make([]bool, n),
	}
}

func (s *Summary) equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	eqBools := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	sameKeys := func(a, b map[string]token.Pos) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if _, ok := b[k]; !ok {
				return false
			}
		}
		return true
	}
	if !eqBools(s.Releases, o.Releases) || !eqBools(s.Returns, o.Returns) ||
		!eqBools(s.Escapes, o.Escapes) || !eqBools(s.CallsParam, o.CallsParam) ||
		!eqBools(s.CallsParamGo, o.CallsParamGo) || !eqBools(s.SyncsParam, o.SyncsParam) ||
		!eqBools(s.AddsWGParam, o.AddsWGParam) || s.Unbounded != o.Unbounded ||
		!sameKeys(s.Acquires, o.Acquires) || !sameKeys(s.HoldsOnExit, o.HoldsOnExit) {
		return false
	}
	if len(s.SameRes) != len(o.SameRes) || len(s.Results) != len(o.Results) {
		return false
	}
	for i := range s.SameRes {
		if s.SameRes[i] != o.SameRes[i] {
			return false
		}
	}
	for i := range s.Results {
		if s.Results[i] != o.Results[i] {
			return false
		}
	}
	return true
}

// summarize computes one function's summary against the current summaries
// of its callees.
func summarize(prog *Program, fi *FuncInfo) *Summary {
	n := fi.Decl.Type.Params.NumFields()
	sum := newSummary(n)

	// Lease facts: seed every parameter as a tracked lease and observe
	// what each path does with it. leakObserved[i] is set when some exit
	// leaves parameter i neither released nor handed off.
	lw := newLeaseWalker(prog, fi.Pkg, fi.Decl, nil)
	for i := 0; i < n; i++ {
		i := i
		lw.seedParam(fi.Decl, i,
			func() { sum.Returns[i] = true },
			func() { sum.Escapes[i] = true })
	}
	leaked := lw.walk()
	for i := 0; i < n; i++ {
		sum.Releases[i] = !leaked[i] && !sum.Returns[i] && !sum.Escapes[i]
	}

	// Parameter invocation (direct and through callees like ParallelFor)
	// and the concurrency facts: one walk of the body.
	newConcWalker(prog, fi, sum).walk()

	// Grid-resolution constraints and result deltas.
	gridResSummary(prog, fi, sum)

	return sum
}
