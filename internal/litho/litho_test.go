package litho

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/optics"
)

var (
	testModelOnce sync.Once
	testModel     *optics.Model
)

// model returns a small cached kernel model for the whole test package.
func model(t testing.TB) *optics.Model {
	t.Helper()
	testModelOnce.Do(func() {
		m, err := optics.BuildModel(optics.TestScale())
		if err != nil {
			panic(err)
		}
		testModel = m
	})
	return testModel
}

func randMask(rng *rand.Rand, n int) *grid.Mat {
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func TestForwardOpenAndDarkFrame(t *testing.T) {
	sim := NewSim(model(t))
	const n = 64
	open := grid.NewMat(n, n)
	open.Fill(1)
	f, err := sim.Forward(open, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	min, max := f.Intensity.MinMax()
	if math.Abs(min-1) > 1e-9 || math.Abs(max-1) > 1e-9 {
		t.Errorf("open-frame intensity in [%g, %g], want 1 (normalisation anchor)", min, max)
	}

	dark := grid.NewMat(n, n)
	fd, err := sim.Forward(dark, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if fd.Intensity.MaxAbs() > 1e-12 {
		t.Errorf("dark-frame intensity %g, want 0", fd.Intensity.MaxAbs())
	}
}

func TestForwardIntensityNonNegative(t *testing.T) {
	sim := NewSim(model(t))
	rng := rand.New(rand.NewSource(1))
	mask := randMask(rng, 64)
	f, err := sim.Forward(mask, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if min, _ := f.Intensity.MinMax(); min < -1e-12 {
		t.Errorf("negative aerial intensity %g", min)
	}
}

func TestForwardDoseLinearity(t *testing.T) {
	sim := NewSim(model(t))
	rng := rand.New(rand.NewSource(2))
	mask := randMask(rng, 64)
	f1, err := sim.Forward(mask, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sim.Forward(mask, sim.Model.Nominal, 1.02, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1.Intensity.Data {
		if math.Abs(f2.Intensity.Data[i]-1.02*f1.Intensity.Data[i]) > 1e-9 {
			t.Fatalf("dose not linear at %d", i)
		}
	}
}

func TestForwardValidation(t *testing.T) {
	sim := NewSim(model(t))
	ks := sim.Model.Nominal
	if _, err := sim.Forward(grid.NewMat(64, 32), ks, 1, false); err == nil {
		t.Error("non-square mask accepted")
	}
	if _, err := sim.Forward(grid.NewMat(48, 48), ks, 1, false); err == nil {
		t.Error("non-power-of-two mask accepted")
	}
	if _, err := sim.Forward(grid.NewMat(8, 8), ks, 1, false); err == nil {
		t.Error("mask smaller than kernel support accepted")
	}
}

// TestEq7EqualsSampledEq3 is the core multi-level identity: the truncated
// low-resolution simulation must equal the exact simulation sampled every s
// pixels, because the kernels are band-limited inside the retained block.
func TestEq7EqualsSampledEq3(t *testing.T) {
	sim := NewSim(model(t))
	rng := rand.New(rand.NewSource(3))
	const n, s = 128, 4
	mask := randMask(rng, n)
	full, err := sim.Forward(mask, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	low, err := sim.ForwardEq7(mask, s, sim.Model.Nominal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if low.M != n/s {
		t.Fatalf("Eq7 size %d, want %d", low.M, n/s)
	}
	var worst float64
	for y := 0; y < low.M; y++ {
		for x := 0; x < low.M; x++ {
			d := math.Abs(low.Intensity.At(x, y) - full.Intensity.At(x*s, y*s))
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-9 {
		t.Errorf("Eq7 deviates from sampled Eq3 by %g", worst)
	}
}

// TestEq8ApproximatesEq7: simulating the pooled mask at low resolution must
// closely track the exact subsampled image on smooth (realistic) masks.
func TestEq8ApproximatesEq7(t *testing.T) {
	sim := NewSim(model(t))
	const n, s = 128, 4
	// A realistic rectilinear mask rather than white noise: Eq. (8) is an
	// approximation whose quality the paper demonstrates on layouts.
	mask := grid.NewMat(n, n)
	for y := 40; y < 88; y++ {
		for x := 32; x < 96; x++ {
			mask.Set(x, y, 1)
		}
	}
	eq7, err := sim.ForwardEq7(mask, s, sim.Model.Nominal, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled := grid.AvgPoolDown(mask, s)
	eq8, err := sim.Forward(pooled, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range eq7.Intensity.Data {
		d := eq7.Intensity.Data[i] - eq8.Intensity.Data[i]
		num += d * d
		den += eq7.Intensity.Data[i] * eq7.Intensity.Data[i]
	}
	// Eq. (8) is an approximation (the paper uses it only inside the
	// low-resolution optimization loop); ~10% relative intensity error on a
	// hard edge at s=4 is expected and gets corrected by the high-res pass.
	if rel := math.Sqrt(num / den); rel > 0.15 {
		t.Errorf("Eq8 relative error vs Eq7 = %g, want < 15%%", rel)
	}
}

func TestForwardEq7Validation(t *testing.T) {
	sim := NewSim(model(t))
	ks := sim.Model.Nominal
	mask := grid.NewMat(64, 64)
	if _, err := sim.ForwardEq7(mask, 0, ks, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := sim.ForwardEq7(mask, 8, ks, 1); err == nil {
		t.Error("reduced size below kernel support accepted")
	}
	if _, err := sim.ForwardEq7(grid.NewMat(96, 96), 3, ks, 1); err == nil {
		t.Error("non-power-of-two input accepted")
	}
}

// TestGradientFiniteDifference validates the full adjoint against central
// finite differences of L = Σ c·I for random c — at n = 32, where the
// amplitudes live on the working grid, and at n = 64, where they live on
// the Nyquist grid m′ = 32.
func TestGradientFiniteDifference(t *testing.T) {
	sim := NewSim(model(t))
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{32, 64} {
		mask := randMask(rng, n)
		c := randMask(rng, n) // dL/dI

		f, err := sim.Forward(mask, sim.Model.Nominal, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sim.Gradient(f, c)
		if err != nil {
			t.Fatal(err)
		}

		loss := func(m *grid.Mat) float64 {
			ff, err := sim.Forward(m, sim.Model.Nominal, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			return ff.Intensity.Dot(c)
		}
		const eps = 1e-5
		for trial := 0; trial < 6; trial++ {
			x, y := rng.Intn(n), rng.Intn(n)
			orig := mask.At(x, y)
			mask.Set(x, y, orig+eps)
			lp := loss(mask)
			mask.Set(x, y, orig-eps)
			lm := loss(mask)
			mask.Set(x, y, orig)
			fd := (lp - lm) / (2 * eps)
			if diff := math.Abs(fd - g.At(x, y)); diff > 1e-5*(1+math.Abs(fd)) {
				t.Errorf("n=%d: gradient at (%d,%d): analytic %g, finite-diff %g", n, x, y, g.At(x, y), fd)
			}
		}
	}
}

// TestGradientKeepAmpsEquivalence: the memory-saving recompute path must
// produce the same gradient bits as the cached-amplitude path, with the
// amplitudes on the working grid (n = 32) and on the Nyquist grid (n = 64).
func TestGradientKeepAmpsEquivalence(t *testing.T) {
	sim := NewSim(model(t))
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{32, 64} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)

		fKeep, err := sim.Forward(mask, sim.Model.Nominal, 0.98, true)
		if err != nil {
			t.Fatal(err)
		}
		gKeep, err := sim.Gradient(fKeep, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		fRe, err := sim.Forward(mask, sim.Model.Nominal, 0.98, false)
		if err != nil {
			t.Fatal(err)
		}
		gRe, err := sim.Gradient(fRe, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		if !gKeep.Equal(gRe, 0) {
			t.Errorf("n=%d: gradient differs between keepAmps and recompute paths", n)
		}
	}
}

func TestGradientSizeValidation(t *testing.T) {
	sim := NewSim(model(t))
	mask := grid.NewMat(32, 32)
	f, err := sim.Forward(mask, sim.Model.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, grid.NewMat(16, 16)); err == nil {
		t.Error("mismatched dLdI size accepted")
	}
}

func TestResistBinary(t *testing.T) {
	i := grid.FromSlice(3, 1, []float64{0.1, 0.225, 0.9})
	z := ResistBinary(i, DefaultThreshold)
	want := []float64{0, 1, 1}
	for k, v := range want {
		if z.Data[k] != v {
			t.Fatalf("ResistBinary[%d] = %v, want %v", k, z.Data[k], v)
		}
	}
}

func TestResistSigmoidProperties(t *testing.T) {
	i := grid.FromSlice(3, 1, []float64{0.0, DefaultThreshold, 1.0})
	z := ResistSigmoid(i, DefaultThreshold, DefaultAlpha)
	if math.Abs(z.Data[1]-0.5) > 1e-12 {
		t.Errorf("sigmoid at threshold = %v, want 0.5", z.Data[1])
	}
	if z.Data[0] >= 0.5 || z.Data[2] <= 0.5 {
		t.Error("sigmoid not monotone around threshold")
	}
	// Extreme inputs must not overflow.
	ext := grid.FromSlice(2, 1, []float64{-1e6, 1e6})
	ze := ResistSigmoid(ext, DefaultThreshold, DefaultAlpha)
	if ze.Data[0] != 0 && ze.Data[0] > 1e-300 {
		t.Errorf("sigmoid(-inf) = %v", ze.Data[0])
	}
	if math.Abs(ze.Data[1]-1) > 1e-12 {
		t.Errorf("sigmoid(+inf) = %v", ze.Data[1])
	}
}

func TestResistSigmoidGradMatchesFiniteDifference(t *testing.T) {
	const ith, alpha = 0.225, 50.0
	for _, iv := range []float64{0.1, 0.2, 0.225, 0.3, 0.5} {
		i0 := grid.FromSlice(1, 1, []float64{iv})
		z := ResistSigmoid(i0, ith, alpha)
		g := ResistSigmoidGrad(z, alpha)
		const eps = 1e-7
		ip := grid.FromSlice(1, 1, []float64{iv + eps})
		im := grid.FromSlice(1, 1, []float64{iv - eps})
		fd := (ResistSigmoid(ip, ith, alpha).Data[0] - ResistSigmoid(im, ith, alpha).Data[0]) / (2 * eps)
		if math.Abs(fd-g.Data[0]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("I=%g: dZ/dI analytic %g, fd %g", iv, g.Data[0], fd)
		}
	}
}

func TestProcessCorners(t *testing.T) {
	p := NewProcess(model(t))
	cs := p.Corners()
	if len(cs) != 3 {
		t.Fatalf("got %d corners", len(cs))
	}
	if cs[0].Dose != 1 || cs[1].Dose != 0.98 || cs[2].Dose != 1.02 {
		t.Errorf("corner doses %v %v %v", cs[0].Dose, cs[1].Dose, cs[2].Dose)
	}
	if cs[1].KS != p.Sim.Model.Defocus {
		t.Error("inner corner does not use defocus kernels")
	}
	if cs[0].KS != p.Sim.Model.Nominal || cs[2].KS != p.Sim.Model.Nominal {
		t.Error("nominal/outer corners do not use nominal kernels")
	}
}

// TestCornerOrderingOnFeature: on a printed feature the outer corner (+2%
// dose) must print at least as much area as the inner corner (−2% dose,
// defocus) — the PVBand is exactly the gap between them.
func TestCornerOrderingOnFeature(t *testing.T) {
	p := NewProcess(model(t))
	const n = 128
	mask := grid.NewMat(n, n)
	for y := 44; y < 84; y++ {
		for x := 34; x < 94; x++ {
			mask.Set(x, y, 1)
		}
	}
	zIn, err := p.Print(mask, p.Inner())
	if err != nil {
		t.Fatal(err)
	}
	zOut, err := p.Print(mask, p.Outer())
	if err != nil {
		t.Fatal(err)
	}
	aIn, aOut := zIn.Sum(), zOut.Sum()
	if aOut < aIn {
		t.Errorf("outer area %v < inner area %v", aOut, aIn)
	}
	if aOut == 0 {
		t.Error("feature did not print at outer corner")
	}
}

func TestPrintSigmoidMatchesBinaryFarFromEdge(t *testing.T) {
	p := NewProcess(model(t))
	const n = 128
	mask := grid.NewMat(n, n)
	for y := 32; y < 96; y++ {
		for x := 32; x < 96; x++ {
			mask.Set(x, y, 1)
		}
	}
	zb, err := p.Print(mask, p.Nominal())
	if err != nil {
		t.Fatal(err)
	}
	_, zs, err := p.PrintSigmoid(mask, p.Nominal(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Deep inside the feature and far outside, the two must agree.
	if zb.At(64, 64) != 1 || zs.At(64, 64) < 0.95 {
		t.Errorf("center: binary %v sigmoid %v", zb.At(64, 64), zs.At(64, 64))
	}
	if zb.At(4, 4) != 0 || zs.At(4, 4) > 0.05 {
		t.Errorf("corner: binary %v sigmoid %v", zb.At(4, 4), zs.At(4, 4))
	}
}

func TestPlanCacheReuse(t *testing.T) {
	sim := NewSim(model(t))
	p1, err := sim.Plan(64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sim.Plan(64)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("plan cache returned distinct plans for the same size")
	}
}

func TestGradientRejectsEq7Field(t *testing.T) {
	sim := NewSim(model(t))
	mask := grid.NewMat(64, 64)
	f, err := sim.ForwardEq7(mask, 4, sim.Model.Nominal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, grid.NewMat(f.M, f.M)); err == nil {
		t.Error("gradient of an Eq.7 field accepted — its adjoint is not implemented")
	}
}
