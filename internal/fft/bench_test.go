package fft

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func benchMatrix(n int) *grid.CMat {
	rng := rand.New(rand.NewSource(1))
	m := grid.NewCMat(n, n)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func benchmark2D(b *testing.B, n int) {
	p, err := NewPlan2(n, n)
	if err != nil {
		b.Fatal(err)
	}
	m := benchMatrix(n)
	b.SetBytes(int64(n * n * 16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(m)
		p.Inverse(m)
	}
}

func BenchmarkFFT2_64(b *testing.B)   { benchmark2D(b, 64) }
func BenchmarkFFT2_256(b *testing.B)  { benchmark2D(b, 256) }
func BenchmarkFFT2_1024(b *testing.B) { benchmark2D(b, 1024) }

func BenchmarkFFT1D_4096(b *testing.B) {
	p, err := NewPlan(4096)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
		p.Inverse(x)
	}
}

func BenchmarkApplyKernel(b *testing.B) {
	spec := benchMatrix(256)
	ker := benchMatrix(35)
	var dst *grid.CMat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ApplyKernel(dst, spec, ker, 64, complex(1.0/16, 0))
	}
}

// bandProduct builds a P-band-limited m×m spectrum (ApplyKernel output)
// and the band that describes it.
func bandProduct(m, p int) (*grid.CMat, BandSpec) {
	spec := benchMatrix(m)
	ker := benchMatrix(p)
	return ApplyKernel(nil, spec, ker, m, 1), BandSpec{Half: p / 2}
}

func benchmarkPrunedInverse(b *testing.B, m, p int) {
	plan, err := NewPlan2(m, m)
	if err != nil {
		b.Fatal(err)
	}
	src, band := bandProduct(m, p)
	dst := grid.NewCMat(m, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.InverseBandNoNorm(dst, src, band)
	}
}

func benchmarkInverseDense(b *testing.B, m, p int) {
	plan, err := NewPlan2(m, m)
	if err != nil {
		b.Fatal(err)
	}
	spec := benchMatrix(m)
	ker := benchMatrix(p)
	var dst *grid.CMat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ApplyKernel(dst, spec, ker, m, 1)
		plan.InverseNoNorm(dst)
	}
}

// The pruned per-kernel inverse vs the dense reference pipeline (product +
// inverse).
func BenchmarkInverseBand_1024_P35(b *testing.B)  { benchmarkPrunedInverse(b, 1024, 35) }
func BenchmarkInverseDense_1024_P35(b *testing.B) { benchmarkInverseDense(b, 1024, 35) }
func BenchmarkInverseBand_256_P13(b *testing.B)   { benchmarkPrunedInverse(b, 256, 13) }
func BenchmarkInverseDense_256_P13(b *testing.B)  { benchmarkInverseDense(b, 256, 13) }

func BenchmarkForwardReal_1024(b *testing.B) {
	plan, err := NewPlan2(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mask := grid.NewMat(1024, 1024)
	for i := range mask.Data {
		mask.Data[i] = rng.Float64()
	}
	dst := grid.NewCMat(1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.ForwardReal(dst, mask)
	}
}

func BenchmarkForwardDense_1024(b *testing.B) {
	plan, err := NewPlan2(1024, 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mask := grid.NewMat(1024, 1024)
	for i := range mask.Data {
		mask.Data[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := grid.ComplexFromReal(mask)
		plan.Forward(dst)
	}
}

// ApplyKernel's reuse path pays a full m² memset per kernel, visible at
// m = 2048.
func BenchmarkApplyKernelReuseFull_2048(b *testing.B) {
	spec := benchMatrix(2048)
	ker := benchMatrix(35)
	var dst *grid.CMat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ApplyKernel(dst, spec, ker, 2048, 1)
	}
}
