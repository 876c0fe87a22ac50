package a

import (
	"sync"

	"repro/internal/grid"
)

// MuA and MuB are taken on both sides of the LockA ↔ Helper cycle.
var MuA, MuB sync.Mutex

// LockA and Helper are mutually recursive, so their summaries converge in
// one SCC fixpoint. LockA acquires MuA and releases m only through Helper,
// which the SCC summarizes after LockA, so both facts reach LockA on the
// second pass.
func LockA(p *grid.CMatPool, m *grid.CMat, depth int) {
	Helper(p, m, depth)
}

// Helper takes MuA and releases m, then recurses into LockA with a fresh
// lease that LockA in turn releases.
func Helper(p *grid.CMatPool, m *grid.CMat, depth int) {
	MuA.Lock()
	MuA.Unlock()
	p.Put(m)
	if depth > 0 {
		next := p.Get(1, 1)
		LockA(p, next, depth-1)
	}
}
