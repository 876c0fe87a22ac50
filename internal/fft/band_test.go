package fft

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// bandSpectrum builds an m×m spectrum populated only on the band (random
// values on band rows × band cols). Band rows are exact +0 outside the band
// columns; rows outside the band are filled with NaN, which the BandSpec
// contract says the consumer must never read.
func bandSpectrum(rng *rand.Rand, m, half int) (*grid.CMat, BandSpec) {
	band := BandSpec{Half: half}
	src := grid.NewCMat(m, m)
	nan := complex(math.NaN(), math.NaN())
	for i := range src.Data {
		src.Data[i] = nan
	}
	rows := band.Rows(m)
	for i := 0; i < rows; i++ {
		y := band.Row(i, m)
		for x := 0; x < m; x++ {
			src.Data[y*m+x] = 0
		}
		for j := 0; j < rows; j++ {
			x := band.Row(j, m)
			src.Data[y*m+x] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	return src, band
}

// denseCopy extracts the band content into a fully dense (zero elsewhere)
// matrix — the input the reference Inverse would have been handed.
func denseCopy(src *grid.CMat, band BandSpec) *grid.CMat {
	m := src.W
	out := grid.NewCMat(m, m)
	rows := band.Rows(m)
	for i := 0; i < rows; i++ {
		y := band.Row(i, m)
		copy(out.Data[y*m:(y+1)*m], src.Data[y*m:(y+1)*m])
	}
	return out
}

// equalBits reports the first element where a and b differ in raw IEEE-754
// bits (so +0 vs -0 and NaN payloads count as differences).
func equalBits(a, b *grid.CMat) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return i, false
		}
	}
	return 0, true
}

// The pruning guarantee: InverseBandNoNorm is bit-for-bit the dense
// InverseNoNorm, for every kernel-support/grid combination the kernel sets
// produce (P = 13 at test scale, 35 at paper scale) plus edge halves.
func TestInverseBandBitIdenticalToInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{32, 64, 128, 256} {
		for _, p := range []int{1, 5, 13, 35, 63} {
			if p > m {
				continue
			}
			half := p / 2
			plan, err := NewPlan2(m, m)
			if err != nil {
				t.Fatal(err)
			}
			src, band := bandSpectrum(rng, m, half)
			want := denseCopy(src, band)
			plan.InverseNoNorm(want)

			// dst starts as NaN-poisoned pool garbage: InverseBandNoNorm must
			// fully overwrite it.
			got := grid.NewCMat(m, m)
			nan := complex(math.NaN(), math.NaN())
			for i := range got.Data {
				got.Data[i] = nan
			}
			srcBefore := src.Clone()
			plan.InverseBandNoNorm(got, src, band)
			if i, ok := equalBits(got, want); !ok {
				t.Errorf("m=%d P=%d: InverseBandNoNorm differs from InverseNoNorm at %d: %v vs %v",
					m, p, i, got.Data[i], want.Data[i])
			}
			if i, ok := equalBits(src, srcBefore); !ok {
				t.Errorf("m=%d P=%d: InverseBandNoNorm modified src at %d", m, p, i)
			}
		}
	}
}

func TestInverseBandFullCoverAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const m = 32
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	// A band wide enough to cover every row degrades to the dense path.
	src := rand2D(rng, m, m)
	want := src.Clone()
	plan.InverseNoNorm(want)
	got := grid.NewCMat(m, m)
	plan.InverseBandNoNorm(got, src, BandSpec{Half: m / 2})
	if i, ok := equalBits(got, want); !ok {
		t.Errorf("full-cover InverseBandNoNorm differs from InverseNoNorm at %d", i)
	}
	// BandNone means "nothing populated": the result is the all-zero image.
	for i := range got.Data {
		got.Data[i] = complex(math.NaN(), 0)
	}
	plan.InverseBandNoNorm(got, src, BandNone)
	for i, v := range got.Data {
		if v != 0 {
			t.Fatalf("InverseBandNoNorm(BandNone) left %v at %d", v, i)
		}
	}
}

func TestBandSpecRowMapping(t *testing.T) {
	b := BandSpec{Half: 2}
	const m = 16
	if got := b.Rows(m); got != 5 {
		t.Fatalf("Rows = %d, want 5", got)
	}
	want := []int{0, 1, 2, 14, 15}
	for i, w := range want {
		if got := b.Row(i, m); got != w {
			t.Errorf("Row(%d) = %d, want %d", i, got, w)
		}
	}
	if BandNone.Rows(m) != 0 || !BandNone.None() {
		t.Error("BandNone should be empty")
	}
	if !(BandSpec{Half: 8}).Covers(m) || (BandSpec{Half: 7}).Covers(m) {
		t.Error("Covers boundary wrong")
	}
}

// ForwardReal agrees with ComplexFromReal+Forward to rounding: the packed
// two-for-one transform reassociates the same arithmetic, so the comparison
// is tolerance-based (scaled by the spectrum magnitude), not bitwise.
func TestForwardRealMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{2, 8, 16, 64, 128} {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		mask := grid.NewMat(m, m)
		for i := range mask.Data {
			mask.Data[i] = rng.Float64()
		}
		want := grid.ComplexFromReal(mask)
		plan.Forward(want)
		got := grid.NewCMat(m, m)
		plan.ForwardReal(got, mask)

		var maxMag float64
		for _, v := range want.Data {
			if a := math.Hypot(real(v), imag(v)); a > maxMag {
				maxMag = a
			}
		}
		tol := 1e-13 * maxMag * float64(plan.rowP.logN+2)
		if d := got.MaxAbsDiff(want); d > tol {
			t.Errorf("m=%d: ForwardReal differs from reference by %g (tol %g)", m, d, tol)
		}
	}
}

// ForwardRealBand reproduces ForwardReal's bits in every band column and
// zeroes the rest, for every half-width up to and including a covering
// band (which runs the full ForwardReal).
func TestForwardRealBandBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range []int{4, 16, 64, 128} {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		mask := grid.NewMat(m, m)
		for i := range mask.Data {
			mask.Data[i] = rng.Float64()
		}
		want := grid.NewCMat(m, m)
		plan.ForwardReal(want, mask)
		for half := 0; half <= m/2; half++ {
			got := randCMatFFT(rng, m, m) // stale contents must be overwritten
			plan.ForwardRealBand(got, mask, half)
			band := BandSpec{Half: half}
			for y := 0; y < m; y++ {
				for x := 0; x < m; x++ {
					g, w := got.Data[y*m+x], want.Data[y*m+x]
					inBand := x <= half || x >= m-half || band.Covers(m)
					if !inBand {
						w = 0
					}
					if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
						math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
						t.Fatalf("m=%d half=%d cell (%d,%d): got %v, want %v (in band: %v)", m, half, y, x, g, w, inBand)
					}
				}
			}
		}
	}
}

func TestForwardRealZeroMaskIsExactlyZero(t *testing.T) {
	const m = 32
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	got := grid.NewCMat(m, m)
	for i := range got.Data {
		got.Data[i] = complex(math.NaN(), math.NaN())
	}
	plan.ForwardReal(got, grid.NewMat(m, m))
	for i, v := range got.Data {
		if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
			t.Fatalf("zero mask produced %v at %d", v, i)
		}
	}
}

// The combination the gradient accumulator and the Eq. 7 truncation rely
// on: ApplyKernel's output honours the BandSpec contract, so handing it to
// InverseBandNoNorm is bitwise equal to the dense ApplyKernel +
// InverseNoNorm pipeline.
func TestApplyKernelPlusInverseBandPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n, m = 128, 64
	spec := rand2D(rng, n, n)
	plan, err := NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	k := grid.NewCMat(13, 13)
	for i := range k.Data {
		k.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	scale := complex(0.25, 0) // Eq. 7 truncation scale for s = 2

	prod := ApplyKernel(nil, spec, k, m, scale)
	got := grid.NewCMat(m, m)
	plan.InverseBandNoNorm(got, prod, BandSpec{Half: k.W / 2})

	want := prod.Clone()
	plan.InverseNoNorm(want)
	if i, ok := equalBits(got, want); !ok {
		t.Fatalf("pipeline differs from dense at %d: %v vs %v", i, got.Data[i], want.Data[i])
	}
}

func TestZeroRows(t *testing.T) {
	const m = 16
	mat := grid.NewCMat(m, m)
	for i := range mat.Data {
		mat.Data[i] = 1
	}
	b := BandSpec{Half: 1}
	b.ZeroRows(mat)
	for y := 0; y < m; y++ {
		inBand := y <= 1 || y >= m-1
		for x := 0; x < m; x++ {
			v := mat.Data[y*m+x]
			if inBand && v != 0 {
				t.Fatalf("band row %d not cleared", y)
			}
			if !inBand && v != 1 {
				t.Fatalf("non-band row %d touched", y)
			}
		}
	}
}
