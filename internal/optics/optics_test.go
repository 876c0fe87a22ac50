package optics

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

func TestConfigValidation(t *testing.T) {
	good := TestScale()
	if err := good.Validate(); err != nil {
		t.Fatalf("TestScale config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.FieldNM = 0 },
		func(c *Config) { c.WavelengthNM = -1 },
		func(c *Config) { c.NA = 0 },
		func(c *Config) { c.SigmaIn = 0.9; c.SigmaOut = 0.6 },
		func(c *Config) { c.SigmaOut = 1.5 },
		func(c *Config) { c.NumKernels = 0 },
		func(c *Config) { c.KernelSize = 8 },
		func(c *Config) { c.SourceGrid = 2 },
	}
	for i, mutate := range cases {
		c := TestScale()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestAutoKernelSizePaperScale(t *testing.T) {
	c := Default()
	if got := c.P(); got != 35 {
		t.Errorf("P at paper scale = %d, want 35", got)
	}
	c.FieldNM = 512
	if got := c.P(); got != 13 {
		t.Errorf("P at 512 nm field = %d, want 13", got)
	}
	c.KernelSize = 21
	if got := c.P(); got != 21 {
		t.Errorf("explicit P = %d, want 21", got)
	}
}

func TestDiscretizeSourceAnnulus(t *testing.T) {
	c := TestScale()
	pts := DiscretizeSource(c)
	if len(pts) == 0 {
		t.Fatal("no source points")
	}
	var wsum float64
	scale := c.NA / c.WavelengthNM
	for _, p := range pts {
		wsum += p.Weight
		sigma := math.Hypot(p.FX, p.FY) / scale
		if sigma < c.SigmaIn-1e-9 || sigma > c.SigmaOut+1e-9 {
			t.Fatalf("source point at σ=%g outside annulus [%g, %g]", sigma, c.SigmaIn, c.SigmaOut)
		}
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Errorf("source weights sum to %g, want 1", wsum)
	}
}

func TestDiscretizeSourceThinRingFallback(t *testing.T) {
	c := TestScale()
	c.SigmaIn = 0.700
	c.SigmaOut = 0.701
	c.SourceGrid = 5
	pts := DiscretizeSource(c)
	if len(pts) == 0 {
		t.Fatal("thin-ring fallback produced no points")
	}
}

func TestPupilCutoffAndDefocus(t *testing.T) {
	c := TestScale()
	fc := c.NA / c.WavelengthNM
	if Pupil(c, 0, 0, 0) != 1 {
		t.Error("pupil at DC should be 1")
	}
	if Pupil(c, fc*1.01, 0, 0) != 0 {
		t.Error("pupil beyond NA should be 0")
	}
	v := Pupil(c, fc/2, 0, 30)
	if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
		t.Errorf("defocused pupil magnitude %g, want 1", cmplx.Abs(v))
	}
	if imag(v) == 0 {
		t.Error("defocused pupil should carry phase")
	}
}

func TestBuildTCCHermitianPSD(t *testing.T) {
	c := TestScale()
	c.SourceGrid = 5
	tcc := BuildTCC(c, 0)
	if tcc.P != c.P() || tcc.Dim != c.P()*c.P() {
		t.Fatalf("TCC dims P=%d Dim=%d", tcc.P, tcc.Dim)
	}
	n := tcc.Dim
	for i := 0; i < n; i++ {
		if imag(tcc.Data[i*n+i]) != 0 {
			t.Fatalf("diagonal entry %d not real", i)
		}
		if real(tcc.Data[i*n+i]) < -1e-15 {
			t.Fatalf("diagonal entry %d negative: %v", i, tcc.Data[i*n+i])
		}
		for j := i + 1; j < n; j++ {
			if cmplx.Abs(tcc.Data[i*n+j]-cmplx.Conj(tcc.Data[j*n+i])) > 1e-12 {
				t.Fatalf("TCC not Hermitian at (%d,%d)", i, j)
			}
		}
	}
	if tcc.Trace() <= 0 {
		t.Error("TCC trace not positive")
	}
}

func TestBuildModelKernels(t *testing.T) {
	c := TestScale()
	m, err := BuildModel(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range []*KernelSet{m.Nominal, m.Defocus} {
		if len(ks.Kernels) == 0 || len(ks.Kernels) != len(ks.Weights) {
			t.Fatalf("kernel set sizes: %d kernels, %d weights", len(ks.Kernels), len(ks.Weights))
		}
		if ks.P != c.P() {
			t.Fatalf("kernel support %d, want %d", ks.P, c.P())
		}
		// Weights descending and positive.
		for k := 1; k < len(ks.Weights); k++ {
			if ks.Weights[k] <= 0 {
				t.Fatalf("weight %d not positive: %g", k, ks.Weights[k])
			}
			if ks.Weights[k] > ks.Weights[k-1]+1e-12 {
				t.Fatalf("weights not descending at %d", k)
			}
		}
		// Open-frame normalisation: Σ w_k |H_k(DC)|² == 1.
		var open float64
		ctr := ks.P / 2
		for k, h := range ks.Kernels {
			dc := h.At(ctr, ctr)
			open += ks.Weights[k] * (real(dc)*real(dc) + imag(dc)*imag(dc))
		}
		if math.Abs(open-1) > 1e-9 {
			t.Errorf("open-frame intensity %g, want 1", open)
		}
	}
	// The defocus set must actually differ from the nominal set.
	if m.Nominal.Kernels[0].MaxAbsDiff(m.Defocus.Kernels[0]) < 1e-9 {
		t.Error("defocus kernels identical to nominal")
	}
}

func TestBuildModelRejectsInvalid(t *testing.T) {
	c := TestScale()
	c.NA = -1
	if _, err := BuildModel(c); err == nil {
		t.Fatal("invalid config accepted by BuildModel")
	}
}

// TestKernelEigenResidual checks the factored eigenpairs against the dense
// TCC over every retained kernel: eigen-residual, reconstruction of T,
// orthonormality and the trace.
func TestKernelEigenResidual(t *testing.T) {
	for _, shape := range []SourceShape{Annular, Circular, Quasar} {
		for _, field := range []float64{512, 1024, 2048} {
			c := Default()
			c.Shape = shape
			c.FieldNM = field
			for _, defocus := range []float64{0, c.DefocusNM} {
				t.Run(fmt.Sprintf("%v/%gnm/defocus=%g", shape, field, defocus), func(t *testing.T) {
					t.Parallel()
					checkFactoredEigen(t, c, defocus)
				})
			}
		}
	}
}

func checkFactoredEigen(t *testing.T, c Config, defocus float64) {
	_, a := tccFactor(c, defocus)
	vals, vecs, trace, err := eigenpairs(a, len(a))
	if err != nil {
		t.Fatal(err)
	}
	tcc := BuildTCC(c, defocus)
	dim := tcc.Dim

	// ‖T·h_k − λ_k·h_k‖ ≤ 1e-12·λ_0.
	th := make([][]complex128, len(vecs))
	for k := range th {
		th[k] = make([]complex128, dim)
	}
	tcc.MatVecBlock(th, vecs)
	for k, h := range vecs {
		var res float64
		for i := range h {
			d := th[k][i] - complex(vals[k], 0)*h[i]
			res += real(d)*real(d) + imag(d)*imag(d)
		}
		if r := math.Sqrt(res); r > 1e-12*vals[0] {
			t.Errorf("eigenpair %d residual %g > 1e-12·λ_0 (λ=%g)", k, r, vals[k])
		}
	}

	// Σ_k λ_k·h_k·h_kᴴ reconstructs T to 1e-12 relative Frobenius. The
	// difference is formed in place, so the dense trace is read first.
	dense := tcc.Trace()
	var diff, norm float64
	for _, v := range tcc.Data {
		norm += real(v)*real(v) + imag(v)*imag(v)
	}
	for k, h := range vecs {
		for i, hi := range h {
			c := complex(vals[k], 0) * hi
			row := tcc.Data[i*dim : (i+1)*dim]
			for j, hj := range h {
				row[j] -= c * complex(real(hj), -imag(hj))
			}
		}
	}
	for _, d := range tcc.Data {
		diff += real(d)*real(d) + imag(d)*imag(d)
	}
	if rel := math.Sqrt(diff / norm); rel > 1e-12 {
		t.Errorf("SOCS reconstruction of T off by %g relative (%d kernels)", rel, len(vecs))
	}

	// Orthonormal kernels.
	for j := range vecs {
		for k := j; k < len(vecs); k++ {
			want := complex(0, 0)
			if j == k {
				want = 1
			}
			if d := cmplx.Abs(cdot(vecs[j], vecs[k]) - want); d > 1e-10 {
				t.Errorf("⟨h_%d, h_%d⟩ off by %g", j, k, d)
			}
		}
	}

	// The factor's trace is the dense trace, and EnergyCapture reports it.
	if math.Abs(trace-dense) > 1e-12*dense {
		t.Errorf("factor trace %g, dense trace %g", trace, dense)
	}
	_, ecTrace, err := EnergyCapture(c, defocus)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ecTrace-dense) > 1e-12*dense {
		t.Errorf("EnergyCapture trace %g, dense trace %g", ecTrace, dense)
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if sum > dense*(1+1e-12) {
		t.Errorf("Σλ %g exceeds trace %g", sum, dense)
	}
}

func TestEnergyCapture(t *testing.T) {
	c := TestScale()
	c.SourceGrid = 5
	cap8, tr, err := EnergyCapture(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap8 <= 0 || tr <= 0 || cap8 > tr+1e-9 {
		t.Fatalf("capture %g / trace %g out of range", cap8, tr)
	}
	c2 := c
	c2.NumKernels = 2
	cap2, _, err := EnergyCapture(c2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap2 > cap8+1e-9 {
		t.Errorf("2-kernel capture %g exceeds 8-kernel capture %g", cap2, cap8)
	}
}

func TestCanonicalPhaseDeterminism(t *testing.T) {
	// examples/kernelgen's K=12 at 512 nm splits a degenerate pair; the
	// kept member must still be the same on every build.
	split := TestScale()
	split.NumKernels = 12
	for _, c := range []Config{TestScale(), split} {
		m1, err := BuildModel(c)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := BuildModel(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*KernelSet{{m1.Nominal, m2.Nominal}, {m1.Defocus, m2.Defocus}} {
			a, b := pair[0], pair[1]
			if len(a.Kernels) != len(b.Kernels) {
				t.Fatalf("kernel count changed between builds: %d vs %d", len(a.Kernels), len(b.Kernels))
			}
			for k := range a.Kernels {
				if d := a.Kernels[k].MaxAbsDiff(b.Kernels[k]); d > 0 {
					t.Errorf("K=%d: kernel %d differs between identical builds by %g", c.NumKernels, k, d)
				}
				if math.Float64bits(a.Weights[k]) != math.Float64bits(b.Weights[k]) {
					t.Errorf("K=%d: weight %d differs between identical builds", c.NumKernels, k)
				}
			}
		}
	}
}

func TestSourceShapes(t *testing.T) {
	base := TestScale()
	counts := map[SourceShape]int{}
	for _, shape := range []SourceShape{Annular, Circular, Dipole, Quasar} {
		c := base
		c.Shape = shape
		if err := c.Validate(); err != nil {
			t.Fatalf("%v: %v", shape, err)
		}
		pts := DiscretizeSource(c)
		if len(pts) == 0 {
			t.Fatalf("%v: no source points", shape)
		}
		counts[shape] = len(pts)
		var wsum float64
		for _, p := range pts {
			wsum += p.Weight
		}
		if math.Abs(wsum-1) > 1e-12 {
			t.Errorf("%v: weights sum to %g", shape, wsum)
		}
	}
	// Circular ⊇ Annular ⊇ Dipole/Quasar subsets.
	if counts[Circular] <= counts[Annular] {
		t.Errorf("circular %d not larger than annular %d", counts[Circular], counts[Annular])
	}
	if counts[Dipole] >= counts[Annular] || counts[Quasar] >= counts[Annular] {
		t.Errorf("pole shapes not subsets: dipole %d quasar %d annular %d",
			counts[Dipole], counts[Quasar], counts[Annular])
	}
}

func TestDipoleGeometry(t *testing.T) {
	c := TestScale()
	c.Shape = Dipole
	c.SourceGrid = 15
	scale := c.NA / c.WavelengthNM
	for _, p := range DiscretizeSource(c) {
		sx, sy := p.FX/scale, p.FY/scale
		if sx*sx < sy*sy {
			t.Fatalf("dipole point (%g, %g) closer to the Y axis", sx, sy)
		}
	}
}

func TestQuasarGeometry(t *testing.T) {
	c := TestScale()
	c.Shape = Quasar
	c.SourceGrid = 15
	scale := c.NA / c.WavelengthNM
	for _, p := range DiscretizeSource(c) {
		sx, sy := p.FX/scale, p.FY/scale
		r2 := sx*sx + sy*sy
		if r2 == 0 {
			t.Fatal("quasar contains the origin")
		}
		if s2 := math.Abs(2 * sx * sy / r2); s2 < sin45-1e-9 {
			t.Fatalf("quasar point (%g, %g) off the diagonals (|sin2θ|=%g)", sx, sy, s2)
		}
	}
}

func TestSourceShapeString(t *testing.T) {
	if Annular.String() != "annular" || Quasar.String() != "quasar" {
		t.Error("SourceShape.String broken")
	}
	if SourceShape(9).String() == "" {
		t.Error("unknown shape has empty String")
	}
}

func TestShapeChangesKernels(t *testing.T) {
	a := TestScale()
	d := TestScale()
	d.Shape = Dipole
	ma, err := BuildModel(a)
	if err != nil {
		t.Fatal(err)
	}
	md, err := BuildModel(d)
	if err != nil {
		t.Fatal(err)
	}
	if ma.Nominal.Kernels[0].MaxAbsDiff(md.Nominal.Kernels[0]) < 1e-9 {
		t.Error("dipole kernels identical to annular")
	}
}

// TCC is the dense P²×P² TCC matrix, the oracle the factored eigensolver is
// checked against. Data is row-major Dim×Dim, Hermitian.
type TCC struct {
	P, Dim int
	Data   []complex128
}

// BuildTCC assembles the dense TCC T = Σ_s a_s·a_sᴴ from the factor columns.
func BuildTCC(c Config, defocusNM float64) *TCC {
	p, a := tccFactor(c, defocusNM)
	dim := p * p
	t := &TCC{P: p, Dim: dim, Data: make([]complex128, dim*dim)}
	for _, v := range a {
		for i, vi := range v {
			if vi == 0 {
				continue
			}
			row := t.Data[i*dim : (i+1)*dim]
			for j, vj := range v {
				row[j] += vi * cmplx.Conj(vj)
			}
		}
	}
	return t
}

// MatVecBlock computes dst[k] = T·src[k] for each vector of the block.
func (t *TCC) MatVecBlock(dst, src [][]complex128) {
	for i := 0; i < t.Dim; i++ {
		row := t.Data[i*t.Dim : (i+1)*t.Dim]
		for k, s := range src {
			var acc complex128
			for j, r := range row {
				acc += r * s[j]
			}
			dst[k][i] = acc
		}
	}
}

// Trace returns the real trace of T.
func (t *TCC) Trace() float64 {
	var tr float64
	for i := 0; i < t.Dim; i++ {
		tr += real(t.Data[i*t.Dim+i])
	}
	return tr
}
