package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func randCMatFFT(rng *rand.Rand, w, h int) *grid.CMat {
	m := grid.NewCMat(w, h)
	for i := range m.Data {
		m.Data[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return m
}

// hermitize makes a DC-at-zero n×n spectrum exactly Hermitian in place:
// S(-fy,-fx) = conj(S(fy,fx)) bit-for-bit, self-conjugate cells real.
func hermitize(s *grid.CMat) {
	n := s.W
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			my, mx := (n-y)%n, (n-x)%n
			i, j := y*n+x, my*n+mx
			if i < j {
				s.Data[j] = complex(real(s.Data[i]), -imag(s.Data[i]))
			} else if i == j {
				s.Data[i] = complex(real(s.Data[i]), 0)
			}
		}
	}
}

// hermitizeKernel makes a DC-centred odd kernel exactly Hermitian:
// K(-fy,-fx) = conj(K(fy,fx)), i.e. cell i pairs with cell P²-1-i.
func hermitizeKernel(k *grid.CMat) {
	d := k.Data
	n := len(d)
	for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
		d[j] = complex(real(d[i]), -imag(d[i]))
	}
	mid := n / 2
	d[mid] = complex(real(d[mid]), 0)
}

// perKernelFolded runs the dense per-kernel folded path — ApplyKernel with
// the folded scale, InverseNoNorm, AbsSqScaledInto+Add intensity fold in
// ascending k — the sequence the batch must reproduce bit-for-bit (its
// pruning skips only butterflies on structural zeros).
func perKernelFolded(t *testing.T, plan *Plan2, spec *grid.CMat, kernels []*grid.CMat, scale complex128, weights []float64) ([]*grid.CMat, *grid.Mat) {
	t.Helper()
	m := plan.W()
	outs := make([]*grid.CMat, len(kernels))
	intensity := grid.NewMat(m, m)
	contrib := grid.NewMat(m, m)
	for k, kern := range kernels {
		outs[k] = ApplyKernel(nil, spec, kern, m, scale)
		plan.InverseNoNorm(outs[k])
		outs[k].AbsSqScaledInto(contrib, weights[k])
		intensity.Add(contrib)
	}
	return outs, intensity
}

func batchRun(t *testing.T, plan *Plan2, spec *grid.CMat, kernels []*grid.CMat, scale complex128, weights []float64, specHerm bool, workers int, keepAmps bool) ([]*grid.CMat, *grid.Mat) {
	t.Helper()
	m := plan.W()
	b := plan.MulRowsBatch(spec, kernels, scale, specHerm, workers)
	if b == nil {
		t.Fatalf("MulRowsBatch returned nil for m=%d P=%d", m, kernels[0].W)
	}
	var outs []*grid.CMat
	if keepAmps {
		outs = make([]*grid.CMat, len(kernels))
		for k := range outs {
			outs[k] = grid.NewCMat(m, m)
		}
	}
	intensity := grid.NewMat(m, m)
	b.InverseColumns(outs, 1, weights, intensity)
	return outs, intensity
}

// kernelSupportFor picks an odd kernel support that does not cover size m.
func kernelSupportFor(m int) int {
	p := 35
	if 2*(p/2)+1 >= m {
		p = m/2 - 1
		if p%2 == 0 {
			p--
		}
	}
	return p
}

// TestBatchMatchesPerKernelBitExact: the batched MulRowsBatch +
// InverseColumns pair must reproduce the dense per-kernel folded path
// bit-for-bit — amplitudes and the k-ordered intensity fold — across the
// size sweep m ∈ {8…2048} with a general (non-Hermitian) spectrum.
func TestBatchMatchesPerKernelBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		nk := 6
		if m >= 512 {
			nk = 3
		}
		pk := kernelSupportFor(m)
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := randCMatFFT(rng, m, m)
		kernels := make([]*grid.CMat, nk)
		weights := make([]float64, nk)
		for k := range kernels {
			kernels[k] = randCMatFFT(rng, pk, pk)
			weights[k] = rng.Float64() + 0.1
		}
		scale := FoldInverseScale(1, m, m)
		wantAmps, wantI := perKernelFolded(t, plan, spec, kernels, scale, weights)
		for _, keep := range []bool{false, true} {
			gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, false, 4, keep)
			if !gotI.Equal(wantI, 0) {
				t.Errorf("m=%d P=%d keep=%v: batched intensity differs from per-kernel fold", m, pk, keep)
			}
			if keep {
				for k := range kernels {
					if gotAmps[k].MaxAbsDiff(wantAmps[k]) != 0 {
						t.Errorf("m=%d P=%d: batched amplitude %d differs from per-kernel", m, pk, k)
					}
				}
			}
		}
	}
}

// TestBatchEq7Spectrum: the batch consumes an n×n spectrum at reduced size
// m < n (the Eq. 7 truncation) identically to ApplyKernel + InverseNoNorm.
func TestBatchEq7Spectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m, pk, nk := 256, 64, 17, 4
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := randCMatFFT(rng, n, n)
	kernels := make([]*grid.CMat, nk)
	weights := make([]float64, nk)
	for k := range kernels {
		kernels[k] = randCMatFFT(rng, pk, pk)
		weights[k] = rng.Float64() + 0.1
	}
	scale := FoldInverseScale(complex(0.25, 0), m, m)
	wantAmps, wantI := perKernelFolded(t, plan, spec, kernels, scale, weights)
	gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, false, 3, true)
	if !gotI.Equal(wantI, 0) {
		t.Error("batched Eq7 intensity differs from per-kernel fold")
	}
	for k := range kernels {
		if gotAmps[k].MaxAbsDiff(wantAmps[k]) != 0 {
			t.Errorf("batched Eq7 amplitude %d differs", k)
		}
	}
}

// TestBatchWorkerDeterminism: every worker count produces the same bits —
// the column-block fold is k-ordered within each block and blocks are
// disjoint.
func TestBatchWorkerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, pk, nk := 128, 35, 8
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := randCMatFFT(rng, m, m)
	kernels := make([]*grid.CMat, nk)
	weights := make([]float64, nk)
	for k := range kernels {
		kernels[k] = randCMatFFT(rng, pk, pk)
		weights[k] = rng.Float64() + 0.1
	}
	scale := FoldInverseScale(1, m, m)
	wantAmps, wantI := batchRun(t, plan, spec, kernels, scale, weights, false, 1, true)
	for _, w := range []int{2, 3, 7, 16} {
		gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, false, w, true)
		if !gotI.Equal(wantI, 0) {
			t.Errorf("workers=%d: intensity differs from serial batch", w)
		}
		for k := range kernels {
			if gotAmps[k].MaxAbsDiff(wantAmps[k]) != 0 {
				t.Errorf("workers=%d: amplitude %d differs from serial batch", w, k)
			}
		}
	}
}

// TestBatchHermitianGateClosed: specHermitian=true with kernels that are
// NOT exactly Hermitian must leave the mirror gate closed — output stays
// bit-identical to the per-kernel path.
func TestBatchHermitianGateClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, pk, nk := 64, 9, 3
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := randCMatFFT(rng, m, m)
	hermitize(spec)
	kernels := make([]*grid.CMat, nk)
	weights := make([]float64, nk)
	for k := range kernels {
		kernels[k] = randCMatFFT(rng, pk, pk) // generic: not Hermitian
		weights[k] = 1
	}
	scale := FoldInverseScale(1, m, m)
	wantAmps, wantI := perKernelFolded(t, plan, spec, kernels, scale, weights)
	gotAmps, gotI := batchRun(t, plan, spec, kernels, scale, weights, true, 2, true)
	if !gotI.Equal(wantI, 0) {
		t.Error("closed Hermitian gate: intensity differs from per-kernel fold")
	}
	for k := range kernels {
		if gotAmps[k].MaxAbsDiff(wantAmps[k]) != 0 {
			t.Errorf("closed Hermitian gate: amplitude %d differs", k)
		}
	}
}

// TestBatchHermitianMirror: with an exactly Hermitian spectrum AND exactly
// Hermitian kernels the conjugate-mirror row halving engages. The mirrored
// rows take a different (but algebraically equal) arithmetic route, so the
// comparison is at documented ulp-level relative tolerance, and the result
// must also be (exactly) real-valued amplitude symmetry: A = conj-symmetric
// product of Hermitian spectra is real, checked loosely too.
func TestBatchHermitianMirror(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, m := range []int{32, 128} {
		pk, nk := 11, 3
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		spec := randCMatFFT(rng, m, m)
		hermitize(spec)
		kernels := make([]*grid.CMat, nk)
		weights := make([]float64, nk)
		for k := range kernels {
			kernels[k] = randCMatFFT(rng, pk, pk)
			hermitizeKernel(kernels[k])
			if !kernelHermitianExact(kernels[k]) {
				t.Fatal("hermitizeKernel did not produce an exactly Hermitian kernel")
			}
			weights[k] = 1
		}
		scale := FoldInverseScale(1, m, m)
		wantAmps, _ := perKernelFolded(t, plan, spec, kernels, scale, weights)
		gotAmps, _ := batchRun(t, plan, spec, kernels, scale, weights, true, 2, true)
		for k := range kernels {
			ref := 0.0
			for _, v := range wantAmps[k].Data {
				if a := cmplx.Abs(v); a > ref {
					ref = a
				}
			}
			if d := gotAmps[k].MaxAbsDiff(wantAmps[k]); d > 1e-12*ref {
				t.Errorf("m=%d: mirrored amplitude %d deviates %g (ref %g) beyond ulp tolerance", m, k, d, ref)
			}
		}
	}
}

// TestBatchFallbacks: layouts the batch cannot take return nil so callers
// fall back to the dense per-kernel path.
func TestBatchFallbacks(t *testing.T) {
	plan, err := NewPlan2(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	spec := randCMatFFT(rng, 16, 16)
	if b := plan.MulRowsBatch(spec, nil, 1, false, 1); b != nil {
		t.Error("empty kernel set should return nil")
	}
	// m = 2 is not a multiple of four (and an odd P ≤ 2 is P = 1, a band
	// that covers nothing yet) — the only power-of-two grid besides m = 1
	// that the batch declines.
	plan2, err := NewPlan2(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b := plan2.MulRowsBatch(randCMatFFT(rng, 2, 2), []*grid.CMat{randCMatFFT(rng, 1, 1)}, 1, false, 1); b != nil {
		t.Error("m = 2 should return nil")
	}
	// A band one short of covering (P = 15 on m = 16 — an odd P ≤ m can
	// never actually cover a power-of-two m) still takes the batch path.
	nearly := []*grid.CMat{randCMatFFT(rng, 15, 15)}
	weights := []float64{1}
	scale := FoldInverseScale(1, 16, 16)
	wantAmps, wantI := perKernelFolded(t, plan, spec, nearly, scale, weights)
	gotAmps, gotI := batchRun(t, plan, spec, nearly, scale, weights, false, 2, true)
	if !gotI.Equal(wantI, 0) || gotAmps[0].MaxAbsDiff(wantAmps[0]) != 0 {
		t.Error("near-covering band batch differs from per-kernel path")
	}
}

// TestSharedTables: plans of one length share one table set, the reuse
// counter advances, and the byte gauge is positive and stable across
// reuse.
func TestSharedTables(t *testing.T) {
	p1, err := NewPlan(512)
	if err != nil {
		t.Fatal(err)
	}
	reuse0 := TableReuse()
	bytes0 := TableBytes()
	if bytes0 <= 0 {
		t.Fatalf("table_bytes %d after building a plan", bytes0)
	}
	p2, err := NewPlan(512)
	if err != nil {
		t.Fatal(err)
	}
	if p1.tab != p2.tab {
		t.Error("two plans of one length do not share tables")
	}
	if TableReuse() != reuse0+1 {
		t.Errorf("table_reuse %d, want %d", TableReuse(), reuse0+1)
	}
	if TableBytes() != bytes0 {
		t.Errorf("table_bytes changed on reuse: %d → %d", bytes0, TableBytes())
	}
	// The shared tables must still produce a correct round trip.
	x := make([]complex128, 512)
	want := make([]complex128, 512)
	rng := rand.New(rand.NewSource(47))
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
		want[i] = x[i]
	}
	p2.Forward(x)
	p1.Inverse(x)
	for i := range x {
		if math.Abs(real(x[i])-real(want[i])) > 1e-12 || math.Abs(imag(x[i])-imag(want[i])) > 1e-12 {
			t.Fatalf("round trip through shared tables diverged at %d", i)
		}
	}
}
