package fft

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// Batched multi-kernel inverse transforms — the fused MulInverseBand path.
// The SOCS loop runs K kernel-multiply + band-pruned inverse pairs against
// one mask spectrum; doing them one kernel at a time re-reads the twiddle
// and skip tables K times and touches every amplitude twice more than
// necessary (once to write the product, once to normalise). The batched
// engine instead runs the whole kernel set through two passes:
//
//	MulRowsBatch      kernel multiply (scale folded, see FoldInverseScale)
//	                  + the pruned inverse ROW transforms, for all K kernels
//	BatchInverse.     the pruned inverse COLUMN transforms, fused with the
//	InverseColumns    |A_k|² intensity accumulation and/or amplitude output
//
// Memory layout: the intermediate holds only the band rows (R = 2·Half+1
// of them) of each kernel's product, interleaved in groups of four rows —
// group g of kernel k stores rows 4g..4g+3 as buf[((k·G+g)·m + x)·4 + lane].
// Four rows (and later four columns) advance through the transform in
// lockstep: each butterfly loads its twiddle once and applies it to four
// lanes sitting in one 64-byte cache line. Since every lane performs
// exactly the per-element operation sequence of the one-kernel pruned
// inverse, the batched result is bit-for-bit identical to the per-kernel
// ApplyKernel + InverseNoNorm pair it replaces (pruning is bit-exact, see
// band.go). The column pass
// walks blocks of four columns, so the gather from the row intermediate,
// the scatter into the amplitude and the intensity accumulation all touch
// full cache lines instead of one value in eight.
//
// Real-input symmetry: when the caller marks the spectrum Hermitian and a
// kernel is *exactly* Hermitian (H(-f) == conj(H(f)) bit-for-bit), the
// product rows come in conjugate pairs, so MulRowsBatch computes only the
// fy ≥ 0 rows and mirrors the rest: row(-fy) = conj(row(fy)) after the row
// transform. Complex multiplication commutes with conjugation exactly in
// IEEE-754, so the mirror is exact when the spectrum is exactly Hermitian;
// for a ForwardReal spectrum (Hermitian only to rounding) the mirrored
// rows deviate at the ulp level — documented in DESIGN.md, "FFT engine
// v2". Physical SOCS kernels are not exactly Hermitian (they carry
// defocus/aberration phase), so on the production path the gate stays
// closed and batched output is bit-identical to the dense per-kernel pair.

// BatchInverse is the retained state between MulRowsBatch and
// InverseColumns: the row-transformed band products of every kernel. It is
// single-use — InverseColumns consumes it and returns its buffer to the
// plan pool. Not safe for concurrent use (the two calls happen on one
// goroutine; the parallelism lives inside each call).
type BatchInverse struct {
	p       *Plan2
	band    BandSpec
	rows    int // band rows per kernel (= band.Rows(m), m not covered)
	groups  int // ⌈rows/4⌉ interleaved row groups per kernel
	nk      int
	workers int
	colBT   *bandTable
	bufp    *[]complex128
	buf     []complex128
}

// MulRowsBatch multiplies spec by every kernel (scale folded into the
// product — pass FoldInverseScale(scale, m, m) to absorb the inverse
// normalisation) and runs the pruned inverse row transforms for the whole
// batch, interleaved four rows at a time. spec is n×n with n ≥ m (Eq. 7
// truncation happens through the frequency indexing, as in
// ApplyKernel); kernels must share one odd support P ≤ m.
// specHermitian declares that spec came from a real mask, enabling the
// conjugate-mirror row halving for exactly-Hermitian kernels.
//
// Returns nil when the batch layout does not apply — m not a multiple of
// four, or the kernel band covers the whole grid (for an odd P ≤ a
// power-of-two m, both need P = 1), or an empty kernel set — and the
// caller should fall back to the dense per-kernel path.
func (p *Plan2) MulRowsBatch(spec *grid.CMat, kernels []*grid.CMat, scale complex128, specHermitian bool, workers int) *BatchInverse {
	m := p.w
	if p.h != m {
		panic(fmt.Sprintf("fft: MulRowsBatch needs a square plan, got %dx%d", p.w, p.h))
	}
	if spec.W != spec.H {
		panic(fmt.Sprintf("fft: MulRowsBatch needs a square spectrum, got %dx%d", spec.W, spec.H))
	}
	nk := len(kernels)
	if nk == 0 || m%4 != 0 {
		return nil
	}
	pk := kernels[0].W
	for _, k := range kernels {
		if k.W != k.H || k.W%2 == 0 || k.W != pk {
			panic(fmt.Sprintf("fft: batch kernels must share one odd square support, got %dx%d vs %d", k.W, k.H, pk))
		}
	}
	n := spec.W
	if pk > m || m > n {
		panic(fmt.Sprintf("fft: MulRowsBatch sizes P=%d m=%d n=%d violate P ≤ m ≤ n", pk, m, n))
	}
	half := pk / 2
	band := BandSpec{Half: half}
	if band.Covers(m) {
		return nil
	}
	rows := band.Rows(m) // = 2·half+1 < m
	groups := (rows + 3) / 4
	if workers < 1 {
		workers = 1
	}

	b := p.biPool.Get().(*BatchInverse)
	*b = BatchInverse{
		p: p, band: band, rows: rows, groups: groups, nk: nk, workers: workers,
		colBT: p.colP.bandTable(half),
	}
	//lint:ignore scratchalias the batch API is two-phase by design: the row slab leased here is consumed and Put by InverseColumns, which every caller must invoke (or the nil-return fallback path never leases)
	b.bufp = p.batchBufs.Get().(*[]complex128)
	need := nk * groups * 4 * m
	if cap(*b.bufp) < need {
		//lint:ignore escape grow-on-miss of the pooled row slab; amortized to zero once the plan is warm
		*b.bufp = make([]complex128, need)
	}
	//lint:ignore scratchalias the slab view lives inside the leased shell on purpose: InverseColumns consumes both and Puts both
	b.buf = (*b.bufp)[:need]

	rowBT := p.rowP.bandTable(half)
	hermOK := specHermitian && imag(scale) == 0
	sd := spec.Data
	grid.ParallelFor(min(workers, nk), nk, func(k int) {
		kd := kernels[k].Data
		base := k * groups * 4 * m
		herm := hermOK && kernelHermitianExact(kernels[k])
		fillGroups := groups
		if herm {
			fillGroups = (half + 1 + 3) / 4 // groups holding the fy ≥ 0 rows
		}
		for g := 0; g < fillGroups; g++ {
			slab := b.buf[base+g*4*m : base+(g+1)*4*m]
			for i := range slab {
				slab[i] = 0
			}
			for j := 0; j < 4; j++ {
				ord := g*4 + j
				if ord >= rows {
					break
				}
				if herm && ord > half {
					continue // filled by the mirror below
				}
				fy := ord
				if ord > half {
					fy = ord - rows // the negative frequencies
				}
				sy := (fy + n) % n
				ky := (fy + half) * pk
				for fx := -half; fx <= half; fx++ {
					sx := (fx + n) % n
					ox := (fx + m) % m
					slab[ox*4+j] = scale * kd[ky+fx+half] * sd[sy*n+sx]
				}
			}
			p.rowP.transform4(slab, p.rowP.tab.twidI, rowBT)
		}
		if herm {
			// After the row transform, row(-fy)[x] = conj(row(fy)[x]) for a
			// conjugate-symmetric product. Mirror ordinal i (fy = i-rows < 0)
			// from ordinal rows-i (fy = rows-i > 0).
			for ord := half + 1; ord < rows; ord++ {
				src := base + ((rows-ord)>>2)*4*m + ((rows - ord) & 3)
				dst := base + (ord>>2)*4*m + (ord & 3)
				for x := 0; x < m; x++ {
					v := b.buf[src+x*4]
					b.buf[dst+x*4] = complex(real(v), -imag(v))
				}
			}
		}
	})
	//lint:ignore scratchalias the pooled shell is handed to the caller by contract; InverseColumns (mandatory, single-use) returns it to biPool
	return b
}

// InverseColumns finishes the batched inverse: for each block of four
// columns it gathers every kernel's band rows from the row intermediate,
// runs the pruned column transforms in lockstep, and — fused in the same
// L2-resident pass — scatters amplitudes into outs[k] (when outs is
// non-nil, fully overwriting each m×m matrix) and accumulates
// weights[k]·|A_k|² into intensity (when non-nil). The intensity fold is
// per element I += weights[k]·(re²+im²) in ascending k — the exact
// AbsSqScaledInto+Add sequence of the per-kernel path, so results are
// bit-identical to it and independent of the worker count. The batch's
// buffer is released; b must not be used again.
func (b *BatchInverse) InverseColumns(outs []*grid.CMat, weights []float64, intensity *grid.Mat) {
	p := b.p
	m := p.w
	if outs != nil && len(outs) != b.nk {
		panic(fmt.Sprintf("fft: %d outs for %d batched kernels", len(outs), b.nk))
	}
	if (weights == nil) != (intensity == nil) {
		panic("fft: InverseColumns needs weights and intensity together")
	}
	if weights != nil && len(weights) != b.nk {
		panic(fmt.Sprintf("fft: %d weights for %d batched kernels", len(weights), b.nk))
	}
	half := b.band.Half
	blocks := m / 4
	grid.ParallelFor(min(b.workers, blocks), blocks, func(bx int) {
		x0 := bx * 4
		cbp := p.colBufs4.Get().(*[]complex128)
		cb := *cbp
		var ib []float64
		var ibp *[]float64
		if intensity != nil {
			ibp = p.intBufs.Get().(*[]float64)
			ib = *ibp
			for y := 0; y < m; y++ {
				copy(ib[y*4:y*4+4], intensity.Data[y*m+x0:y*m+x0+4])
			}
		}
		for k := 0; k < b.nk; k++ {
			kbase := k*b.groups*4*m + x0*4
			for ord := 0; ord < b.rows; ord++ {
				y := b.band.Row(ord, m)
				src := kbase + (ord>>2)*4*m + (ord & 3)
				cb[y*4] = b.buf[src]
				cb[y*4+1] = b.buf[src+4]
				cb[y*4+2] = b.buf[src+8]
				cb[y*4+3] = b.buf[src+12]
			}
			for y := half + 1; y < m-half; y++ {
				cb[y*4], cb[y*4+1], cb[y*4+2], cb[y*4+3] = 0, 0, 0, 0
			}
			p.colP.transform4(cb, p.colP.tab.twidI, b.colBT)
			if outs != nil {
				od := outs[k].Data
				for y := 0; y < m; y++ {
					copy(od[y*m+x0:y*m+x0+4], cb[y*4:y*4+4])
				}
			}
			if intensity != nil {
				wk := weights[k]
				for i := 0; i < 4*m; i++ {
					re, im := real(cb[i]), imag(cb[i])
					ib[i] += wk * (re*re + im*im)
				}
			}
		}
		if intensity != nil {
			for y := 0; y < m; y++ {
				copy(intensity.Data[y*m+x0:y*m+x0+4], ib[y*4:y*4+4])
			}
			p.intBufs.Put(ibp)
		}
		p.colBufs4.Put(cbp)
	})
	p.batchBufs.Put(b.bufp)
	*b = BatchInverse{}
	p.biPool.Put(b)
}

// transform4 is the one-lane butterfly loop of Plan.transform over four
// interleaved lanes: x holds 4·N values laid out x[4·i+lane], and each lane
// undergoes exactly the per-element operation sequence of the one-lane
// transform — same bit-reversal, stage order, twiddles and skipped blocks —
// so each lane's result is bit-identical to that transform on the lane
// alone. twid picks the direction: tab.twidI gives the pruned inverse
// (inversePruned per lane; the batched SOCS), tab.twidF with a nil bt gives
// Forward per lane (the batched adjoint). No normalisation (batch callers
// fold it via FoldInverseScale). A nil bt runs all blocks.
func (p *Plan) transform4(x []complex128, twid []complex128, bt *bandTable) {
	if len(x) != 4*p.n {
		panic(fmt.Sprintf("fft: buffer length %d != 4×plan length %d", len(x), p.n))
	}
	for i, r := range p.tab.rev {
		if int32(i) < r {
			// Length-4-capped reslices: the compiler proves xa[0..3]/xb[0..3]
			// in bounds, so each lane swap costs one slice check instead of
			// eight element checks (bce ratchet).
			a, b := 4*i, 4*int(r)
			xa := x[a : a+4 : a+4]
			xb := x[b : b+4 : b+4]
			xa[0], xb[0] = xb[0], xa[0]
			xa[1], xb[1] = xb[1], xa[1]
			xa[2], xb[2] = xb[2], xa[2]
			xa[3], xb[3] = xb[3], xa[3]
		}
	}
	for s := 1; s <= p.logN; s++ {
		m := 1 << (s - 1) // half block
		blk := m << 1
		tw := twid[p.tab.stageAt[s] : p.tab.stageAt[s]+m]
		var sm *stageMask
		if bt != nil {
			sm = &bt.stages[s-1]
		}
		for k := 0; k < p.n; k += blk {
			if sm != nil && !sm.dense && !sm.nz[k>>uint(s)] {
				continue
			}
			for j := 0; j < m; j++ {
				twj := tw[j]
				// Same reslice trick as the bit-reverse pass: two slice
				// checks per butterfly instead of sixteen element checks.
				a, b := 4*(k+j), 4*(k+j+m)
				xa := x[a : a+4 : a+4]
				xb := x[b : b+4 : b+4]
				t0 := twj * xb[0]
				t1 := twj * xb[1]
				t2 := twj * xb[2]
				t3 := twj * xb[3]
				u0, u1, u2, u3 := xa[0], xa[1], xa[2], xa[3]
				xa[0] = u0 + t0
				xa[1] = u1 + t1
				xa[2] = u2 + t2
				xa[3] = u3 + t3
				xb[0] = u0 - t0
				xb[1] = u1 - t1
				xb[2] = u2 - t2
				xb[3] = u3 - t3
			}
		}
	}
}

// kernelHermitianExact reports whether K(-fy,-fx) == conj(K(fy,fx)) holds
// bit-for-bit for every cell of the DC-centred kernel. For an odd square
// kernel the (-fy,-fx) cell of index i is index P²-1-i.
func kernelHermitianExact(k *grid.CMat) bool {
	d := k.Data
	n := len(d)
	for i, j := 0, n-1; i <= j; i, j = i+1, j-1 {
		a, b := d[i], d[j]
		if i == j {
			// Self-conjugate centre cell: its imaginary part must be a
			// (±)zero; masking the sign bit accepts both encodings.
			if math.Float64bits(imag(a))<<1 != 0 {
				return false
			}
			continue
		}
		if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
			math.Float64bits(imag(a)) != math.Float64bits(-imag(b)) {
			return false
		}
	}
	return true
}
