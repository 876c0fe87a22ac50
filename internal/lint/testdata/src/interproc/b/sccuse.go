package b

import (
	"errors"

	"repro/internal/grid"
	"repro/internal/lint/testdata/src/interproc/a"
)

// LockA acquires a.MuA only through the cycle (LockA → Helper), so the
// second edge of the inversion below needs the converged lock fact.
func HoldBThenCycle(p *grid.CMatPool, m *grid.CMat) {
	a.MuB.Lock()
	a.LockA(p, m, 1)
	a.MuB.Unlock()
}

func HoldAThenB() {
	a.MuA.Lock()
	a.MuB.Lock() // want "a.MuA -> a.MuB at b/sccuse.go:20, a.MuB -> a.MuA at b/sccuse.go:14"
	a.MuB.Unlock()
	a.MuA.Unlock()
}

// LockA releases buf only through the cycle, so only the error return
// leaks it: the finding must name that exit's line.
func ReleaseThroughCycle(p *grid.CMatPool, n int, skip bool) error {
	buf := p.Get(n, n) // want "the exit at line 33 neither"
	if !skip {
		a.LockA(p, buf, 1)
		return nil
	}
	return errors.New("skipped")
}
