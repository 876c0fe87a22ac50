package fft

import (
	"fmt"

	"repro/internal/grid"
)

// Batched band-output adjoint — the transpose of the batched inverse. The
// gradient of the SOCS intensity needs, per kernel k, only the P×P band of
// F(dLdI ⊙ A_k): KernelAdjointPatch reads (2h+1)² of the m² cells a dense
// 2-D forward transform produces. A band cell (fy, fx) is the column
// transform of column fx of the row-transformed product, so every row
// transform is still needed, but only the 2h+1 band columns ever have to be
// column-transformed. AdjointPatches therefore runs, per kernel:
//
//	pass 1   the product dLdI ⊙ A_k, four rows at a time, and the full
//	         forward row transforms in lockstep (transform4 with the
//	         forward twiddles); only the band columns of each transformed
//	         row are kept, already interleaved four columns per group
//	pass 2   the forward column transforms of those band columns, four in
//	         lockstep, and the patch cells scale·conj(K)·g emitted straight
//	         from the band rows
//
// Row-then-column order, the per-lane operation sequence of Plan.Forward
// and the patch expression of KernelAdjointPatch are all unchanged, so each
// patch cell carries the bits of Plan2.Forward + KernelAdjointPatch; the
// m-(2h+1) out-of-band column transforms are simply never run.

// AdjointPatches computes every kernel's adjoint patch from its amplitude:
//
//	patches[k][fy+h, fx+h] = scales[k] · conj(K_k[f]) · F(dLdI ⊙ amps[k])[f]
//
// for |fx|, |fy| ≤ h = P/2, bit-identical to Forward of the product
// followed by KernelAdjointPatch. amps and dLdI are m×m (the plan size),
// kernels share one odd support P, and every P×P patch is fully
// overwritten. Kernels fan out across workers; each kernel's transforms run
// serially on its worker and write only its own patch, so the result does
// not depend on the worker count.
//
// Returns false, touching nothing, when the batch layout does not apply —
// m not a multiple of four, the kernel band covers the grid, or no kernels:
// the same cases MulRowsBatch declines — and the caller should fall back to
// the dense per-kernel adjoint.
func (p *Plan2) AdjointPatches(patches, amps []*grid.CMat, dLdI *grid.Mat, kernels []*grid.CMat, scales []complex128, workers int) bool {
	m := p.w
	if p.h != m {
		panic(fmt.Sprintf("fft: AdjointPatches needs a square plan, got %dx%d", p.w, p.h))
	}
	nk := len(kernels)
	if len(amps) != nk || len(patches) != nk || len(scales) != nk {
		panic(fmt.Sprintf("fft: AdjointPatches got %d amps, %d patches, %d scales for %d kernels",
			len(amps), len(patches), len(scales), nk))
	}
	if nk == 0 || m%4 != 0 {
		return false
	}
	pk := kernels[0].W
	if dLdI.W != m || dLdI.H != m {
		panic(fmt.Sprintf("fft: AdjointPatches dLdI %dx%d does not match plan %d", dLdI.W, dLdI.H, m))
	}
	for k, kern := range kernels {
		if kern.W != kern.H || kern.W%2 == 0 || kern.W != pk || pk > m {
			panic(fmt.Sprintf("fft: batch kernels must share one odd square support ≤ %d, got %dx%d vs %d", m, kern.W, kern.H, pk))
		}
		if a := amps[k]; a.W != m || a.H != m {
			panic(fmt.Sprintf("fft: AdjointPatches amplitude %dx%d does not match plan %d", a.W, a.H, m))
		}
		if pt := patches[k]; pt.W != pk || pt.H != pk {
			panic(fmt.Sprintf("fft: AdjointPatches patch %dx%d does not match support %d", pt.W, pt.H, pk))
		}
	}
	if (BandSpec{Half: pk / 2}).Covers(m) {
		return false
	}
	grid.ParallelFor(min(max(workers, 1), nk), nk, func(k int) {
		p.adjointPatch(patches[k], amps[k], dLdI, kernels[k], scales[k])
	})
	return true
}

// adjointPatch is one kernel of AdjointPatches (layout already validated).
// The band-column intermediate holds cg = ⌈(2h+1)/4⌉ groups of four
// columns, group g storing column ordinal 4g+lane of row y at
// buf[(g·m + y)·4 + lane] — exactly the layout transform4 runs on, so pass
// 2 transforms each group in place.
func (p *Plan2) adjointPatch(patch, amp *grid.CMat, dLdI *grid.Mat, kernel *grid.CMat, scale complex128) {
	m := p.w
	pk := kernel.W
	half := pk / 2
	groups := (pk + 3) / 4
	need := groups * 4 * m
	bp := p.adjBufs.Get().(*[]complex128)
	if cap(*bp) < need {
		//lint:ignore escape grow-on-miss of the pooled band-column slab; amortized to zero once the plan is warm
		*bp = make([]complex128, need)
	}
	buf := (*bp)[:need]
	if pk%4 != 0 {
		// Lanes past the last band column carry no data; clear them so the
		// lockstep transform never runs on stale pool contents (pass 1
		// overwrites every other lane).
		clear(buf[(groups-1)*4*m:])
	}
	sp := p.colBufs4.Get().(*[]complex128)
	slab := *sp

	// Pass 1: product rows, forward row transforms, band-column gather.
	for y0 := 0; y0+4 <= m; y0 += 4 {
		for j := 0; j < 4; j++ {
			r := (y0 + j) * m
			ar := amp.Data[r : r+m]
			dr := dLdI.Data[r : r+m]
			for x := range ar {
				slab[x*4+j] = ar[x] * complex(dr[x], 0)
			}
		}
		p.rowP.transform4(slab, p.rowP.tab.twidF, nil)
		for o := 0; o < pk; o++ {
			x := o
			if o > half {
				x = m - pk + o // the negative frequencies, BandSpec.Row order
			}
			src := slab[x*4 : x*4+4 : x*4+4]
			d := ((o>>2)*m+y0)*4 + o&3
			dst := buf[d : d+13 : d+13] // rows y0..y0+3 of ordinal o
			dst[0], dst[4], dst[8], dst[12] = src[0], src[1], src[2], src[3]
		}
	}

	// Pass 2: band-column transforms and the patch emission.
	kd, pd := kernel.Data, patch.Data
	for g := 0; g < groups; g++ {
		col := buf[g*4*m : (g+1)*4*m]
		p.colP.transform4(col, p.colP.tab.twidF, nil)
		for j := 0; j < 4 && g*4+j < pk; j++ {
			fx := g*4 + j
			if fx > half {
				fx -= pk
			}
			for fy := -half; fy <= half; fy++ {
				gy := fy
				if fy < 0 {
					gy += m
				}
				i := (fy+half)*pk + fx + half
				k := kd[i]
				pd[i] = scale * complex(real(k), -imag(k)) * col[gy*4+j]
			}
		}
	}
	p.colBufs4.Put(sp)
	p.adjBufs.Put(bp)
}
