package fft

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/grid"
)

// Plan2 performs 2-D transforms on W×H complex matrices whose dimensions are
// powers of two. Row and column passes are parallelised across
// runtime.GOMAXPROCS workers. A Plan2 is safe for concurrent use.
type Plan2 struct {
	w, h       int
	rowP, colP *Plan
	// colBufs recycles column-gather scratch across transforms (and across
	// the workers of one transform), so a warm plan performs no allocation.
	colBufs sync.Pool
	// rowBufs recycles the row-pair packing scratch of ForwardReal.
	rowBufs sync.Pool
	// batchBufs recycles the interleaved row-product buffer of
	// MulRowsBatch; sizes vary with the kernel count and band, so entries
	// grow on demand (see batchLease).
	batchBufs sync.Pool
	// colBufs4 and intBufs recycle the 4-column gather scratch of
	// BatchInverse.InverseColumns (complex amplitudes and real intensity).
	colBufs4 sync.Pool
	intBufs  sync.Pool
	// biPool recycles the BatchInverse shell itself: the struct is
	// single-use by contract, so InverseColumns returns it here and the
	// chunked gradient's repeated MulRowsBatch calls stop allocating it.
	biPool sync.Pool
	// adjBufs recycles the per-kernel band-column slab of AdjointPatches;
	// its size follows the kernel support, so entries grow on demand.
	adjBufs sync.Pool
}

// NewPlan2 creates a 2-D plan for w×h matrices.
func NewPlan2(w, h int) (*Plan2, error) {
	rp, err := NewPlan(w)
	if err != nil {
		return nil, fmt.Errorf("fft: row plan: %w", err)
	}
	cp := rp
	if h != w {
		cp, err = NewPlan(h)
		if err != nil {
			return nil, fmt.Errorf("fft: column plan: %w", err)
		}
	}
	p := &Plan2{w: w, h: h, rowP: rp, colP: cp}
	// Pool pointers, not slices: storing a bare slice in a sync.Pool boxes
	// its header on every Put, which alone dominated the transform's
	// allocation profile.
	p.colBufs.New = func() any { b := make([]complex128, h); return &b }
	p.rowBufs.New = func() any { b := make([]complex128, w); return &b }
	p.batchBufs.New = func() any { b := []complex128(nil); return &b }
	p.colBufs4.New = func() any { b := make([]complex128, 4*h); return &b }
	p.intBufs.New = func() any { b := make([]float64, 4*h); return &b }
	p.biPool.New = func() any { return new(BatchInverse) }
	p.adjBufs.New = func() any { b := []complex128(nil); return &b }
	return p, nil
}

// minParallelWork is the smallest pass, in transformed elements, that fans
// out across goroutines: below it (the row pass of a 64² real transform,
// the band rows of a small pruned inverse) starting the workers costs
// about as much as the pass, and every fan-out allocates.
const minParallelWork = 64 * 64

// workersFor resolves the worker count for a pass over `limit` rows or
// columns of the (square) plan. The split never changes a result: each
// row or column is transformed by itself.
func (p *Plan2) workersFor(limit int) int {
	if limit*p.w < minParallelWork {
		return 1
	}
	return min(limit, runtime.GOMAXPROCS(0))
}

// W returns the plan width.
func (p *Plan2) W() int { return p.w }

// H returns the plan height.
func (p *Plan2) H() int { return p.h }

// Forward computes the in-place unnormalised 2-D DFT of m.
func (p *Plan2) Forward(m *grid.CMat) { p.transform(m, false, false) }

// Inverse computes the in-place inverse 2-D DFT of m (with 1/(W·H) factor).
func (p *Plan2) Inverse(m *grid.CMat) { p.transform(m, true, true) }

// InverseNoNorm computes the in-place inverse 2-D DFT of m without the
// 1/(W·H) factor — for callers that folded the normalisation into the
// spectrum (FoldInverseScale).
func (p *Plan2) InverseNoNorm(m *grid.CMat) { p.transform(m, true, false) }

func (p *Plan2) transform(m *grid.CMat, inverse, normalize bool) {
	if m.W != p.w || m.H != p.h {
		panic(fmt.Sprintf("fft: matrix %dx%d does not match plan %dx%d", m.W, m.H, p.w, p.h))
	}
	workers := p.workersFor(p.h)

	if workers <= 1 {
		// Serial fast path: plain loops, no closures, one scratch buffer —
		// the transform allocates nothing once the plan's pool is warm.
		for y := 0; y < p.h; y++ {
			row := m.Data[y*p.w : (y+1)*p.w]
			p.rowP.transform1(row, inverse, normalize)
		}
		p.colPassSerial(m, inverse, normalize)
		return
	}

	// Row pass. The forward/inverse split keeps normalisation in one place:
	// the inverse row pass applies 1/W, the inverse column pass 1/H (both
	// skipped on the NoNorm path).
	grid.ParallelFor(workers, p.h, func(y int) {
		row := m.Data[y*p.w : (y+1)*p.w]
		p.rowP.transform1(row, inverse, normalize)
	})
	p.colPassParallel(m, inverse, normalize, workers)
}

// transform1 dispatches one 1-D pass by direction and normalisation.
func (p *Plan) transform1(x []complex128, inverse, normalize bool) {
	switch {
	case !inverse:
		p.Forward(x)
	case normalize:
		p.Inverse(x)
	default:
		p.InverseNoNorm(x)
	}
}

// colPassSerial transforms every column of m in place on the calling
// goroutine, recycling one gather buffer from the plan pool.
func (p *Plan2) colPassSerial(m *grid.CMat, inverse, normalize bool) {
	bp := p.colBufs.Get().(*[]complex128)
	buf := *bp
	for x := 0; x < p.w; x++ {
		for y := 0; y < p.h; y++ {
			buf[y] = m.Data[y*p.w+x]
		}
		p.colP.transform1(buf, inverse, normalize)
		for y := 0; y < p.h; y++ {
			m.Data[y*p.w+x] = buf[y]
		}
	}
	p.colBufs.Put(bp)
}

// colPassParallel is colPassSerial fanned out across workers: gather each
// column into a scratch buffer, transform, scatter back. Scratch buffers are
// per-worker, recycled on the plan.
func (p *Plan2) colPassParallel(m *grid.CMat, inverse, normalize bool, workers int) {
	grid.ParallelFor(workers, p.w, func(x int) {
		bp := p.colBufs.Get().(*[]complex128)
		buf := *bp
		for y := 0; y < p.h; y++ {
			buf[y] = m.Data[y*p.w+x]
		}
		p.colP.transform1(buf, inverse, normalize)
		for y := 0; y < p.h; y++ {
			m.Data[y*p.w+x] = buf[y]
		}
		p.colBufs.Put(bp)
	})
}
