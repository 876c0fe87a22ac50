package optics

import "math"

// The Hopkins transmission cross coefficient restricted to the P×P kernel
// support is the dim = P² Hermitian matrix
//
//	T[i][j] = Σ_s J_s · P(f_i + f_s) · conj(P(f_j + f_s)),
//
// with i, j indexing signed frequencies (fx, fy) ∈ [−h, h]² row-major as
// (fy+h)·P + (fx+h). With a_s = √J_s · P(· + f_s) it factors as T = A·Aᴴ,
// A = [a_1 … a_S], so its rank is at most S, the number of source points.
// T is never formed: the SOCS kernels come from the S×S Gram Aᴴ·A (see
// eigenpairs), and tests assemble the dense T from this factor as an oracle.

// tccFactor returns the kernel support P and the factor columns a_s (each
// of length P²) of the TCC at the given defocus.
func tccFactor(c Config, defocusNM float64) (p int, a [][]complex128) {
	h := c.kernelHalf()
	p = 2*h + 1
	src := DiscretizeSource(c)

	maxSrcF := 0.0
	for _, s := range src {
		if f := math.Hypot(s.FX, s.FY); f > maxSrcF {
			maxSrcF = f
		}
	}
	pt := buildPupilTable(c, defocusNM, maxSrcF)

	a = make([][]complex128, len(src))
	for si, s := range src {
		v := make([]complex128, p*p)
		sw := complex(math.Sqrt(s.Weight), 0)
		for fy := -h; fy <= h; fy++ {
			for fx := -h; fx <= h; fx++ {
				v[(fy+h)*p+fx+h] = sw * pt.at(fx, fy, s.FX, s.FY)
			}
		}
		a[si] = v
	}
	return p, a
}
