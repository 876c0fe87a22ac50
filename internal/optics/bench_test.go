package optics_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/optics"
)

func BenchmarkBuildModel(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    optics.Config
	}{
		{"TestScale", optics.TestScale()},
		{"BenchScale", experiments.BenchScale().Optics()},
		{"Default", optics.Default()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := optics.BuildModel(tc.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildModelAllocBudget keeps a dense P²×P² TCC (24 MB at paper scale)
// out of the build: the factored solve allocates a few MiB.
func TestBuildModelAllocBudget(t *testing.T) {
	const budget = 8 << 20
	if _, err := optics.BuildModel(optics.Default()); err != nil {
		t.Fatal(err)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := optics.BuildModel(optics.Default()); err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := r.AllocedBytesPerOp(); got >= budget {
		t.Errorf("BuildModel(Default()) allocates %d B/op, budget %d", got, budget)
	}
}
