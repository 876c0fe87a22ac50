package optics

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/grid"
)

// KernelSet is one SOCS decomposition: N_k frequency-domain kernels H_k
// (P×P, DC at the center) with weights w_k, ready for the Hopkins forward
// model of Eq. (3). Weights are jointly normalised so that a fully clear
// mask images to intensity 1.0, which anchors the paper's resist threshold
// I_th = 0.225 across every resolution level.
type KernelSet struct {
	P       int
	Kernels []*grid.CMat
	Weights []float64
}

// Model bundles the nominal-focus and defocus kernel sets, mirroring the two
// kernel files of the ICCAD 2013 contest kit: the nominal set drives Z_norm
// and the +2% dose outer corner, the defocus set the −2% dose inner corner.
type Model struct {
	Config  Config
	Nominal *KernelSet
	Defocus *KernelSet
}

// BuildModel constructs the kernel model for the configuration. Both kernel
// sets come from an S×S eigenproblem on the factored TCC (S = number of
// source points, 44 at paper scale), so a build takes milliseconds and is
// not cached here; the serving daemon shares models across jobs itself.
func BuildModel(c Config) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nom, err := buildKernelSet(c, 0)
	if err != nil {
		return nil, fmt.Errorf("optics: nominal kernels: %w", err)
	}
	def, err := buildKernelSet(c, c.DefocusNM)
	if err != nil {
		return nil, fmt.Errorf("optics: defocus kernels: %w", err)
	}
	return &Model{Config: c, Nominal: nom, Defocus: def}, nil
}

// buildKernelSet factors the TCC at the given defocus and turns its
// dominant eigenpairs into a normalised kernel set.
func buildKernelSet(c Config, defocusNM float64) (*KernelSet, error) {
	p, a := tccFactor(c, defocusNM)
	vals, vecs, _, err := eigenpairs(a, c.NumKernels)
	if err != nil {
		return nil, err
	}
	ks := &KernelSet{P: p, Weights: vals}
	for _, v := range vecs {
		h := &grid.CMat{W: p, H: p, Data: v}
		canonicalizePhase(h)
		ks.Kernels = append(ks.Kernels, h)
	}
	ks.normalizeOpenFrame()
	return ks, nil
}

// rankCutoff is the relative eigenvalue below which a Gram eigenpair counts
// as numerical null space: lifting it would divide rounding noise by √λ.
const rankCutoff = 1e-12

// eigenpairs returns up to nk dominant eigenpairs of T = A·Aᴴ, where a[s] is
// column s of A, together with tr T. It diagonalises the S×S Gram
// G = Aᴴ·A instead of T: if G·u = λ·u then T·(A·u) = λ·(A·u) and
// ‖A·u‖² = λ, so h = A·u/√λ is a unit eigenvector of T with the same
// eigenvalue, and tr T = tr G. Eigenpairs with λ ≤ rankCutoff·λ_0 are
// dropped, so fewer than nk may come back.
func eigenpairs(a [][]complex128, nk int) (vals []float64, vecs [][]complex128, trace float64, err error) {
	s := len(a)
	g := make([]complex128, s*s)
	for i := 0; i < s; i++ {
		n2 := real(cdot(a[i], a[i]))
		g[i*s+i] = complex(n2, 0)
		trace += n2
		for j := i + 1; j < s; j++ {
			v := cdot(a[i], a[j])
			g[i*s+j] = v
			g[j*s+i] = complex(real(v), -imag(v))
		}
	}
	gvals, u, err := HermitianEigen(s, g)
	if err != nil {
		return nil, nil, 0, err
	}
	if gvals[0] <= 0 {
		return nil, nil, 0, fmt.Errorf("optics: TCC has no positive eigenvalues")
	}
	if nk > s {
		nk = s
	}
	for k := 0; k < nk && gvals[k] > rankCutoff*gvals[0]; k++ {
		h := make([]complex128, len(a[0]))
		inv := 1 / math.Sqrt(gvals[k])
		for j, col := range a {
			c := u[j*s+k] * complex(inv, 0)
			for i, v := range col {
				h[i] += c * v
			}
		}
		vals = append(vals, gvals[k])
		vecs = append(vecs, h)
	}
	return vals, vecs, trace, nil
}

// cdot returns ⟨a, b⟩ = Σ conj(a_i)·b_i.
func cdot(a, b []complex128) complex128 {
	var s complex128
	for i, v := range a {
		s += complex(real(v), -imag(v)) * b[i]
	}
	return s
}

// canonicalizePhase rotates a kernel's arbitrary global phase so its
// largest-magnitude coefficient is real and positive, making generated
// kernel sets bit-reproducible across runs.
func canonicalizePhase(h *grid.CMat) {
	best := 0
	bestMag := 0.0
	for i, v := range h.Data {
		if m := real(v)*real(v) + imag(v)*imag(v); m > bestMag {
			bestMag, best = m, i
		}
	}
	if bestMag == 0 {
		return
	}
	ph := h.Data[best] / complex(cmplx.Abs(h.Data[best]), 0)
	inv := complex(real(ph), -imag(ph))
	for i := range h.Data {
		h.Data[i] *= inv
	}
}

// normalizeOpenFrame rescales the weights so a fully clear mask produces
// aerial intensity exactly 1. For a clear mask the per-kernel amplitude is
// the kernel's DC coefficient, so I_open = Σ w_k·|H_k(0,0)|².
func (ks *KernelSet) normalizeOpenFrame() {
	var open float64
	c := ks.P / 2
	for k, h := range ks.Kernels {
		dc := h.At(c, c)
		open += ks.Weights[k] * (real(dc)*real(dc) + imag(dc)*imag(dc))
	}
	if open <= 1e-12 {
		// Pathological (e.g. single odd kernel); fall back to total energy.
		open = 0
		for k := range ks.Kernels {
			open += ks.Weights[k]
		}
	}
	for k := range ks.Weights {
		ks.Weights[k] /= open
	}
}

// EnergyCapture returns the sum of the retained kernels' eigenvalues and
// the TCC trace — their ratio is the quality of the truncated SOCS
// expansion. Both are taken before weight normalisation, so the factor is
// rebuilt; intended for diagnostics (examples/kernelgen), not hot paths.
func EnergyCapture(c Config, defocusNM float64) (captured, trace float64, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	_, a := tccFactor(c, defocusNM)
	vals, _, trace, err := eigenpairs(a, c.NumKernels)
	if err != nil {
		return 0, 0, err
	}
	for _, v := range vals {
		captured += v
	}
	return captured, trace, nil
}
