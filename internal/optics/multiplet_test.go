package optics_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/optics"
)

// TestShippedKernelCountsSplitNoMultiplet pins the truncation rule's
// consequence for the shipped configurations. The source's C4 symmetry
// makes the TCC spectrum come in degenerate multiplets, and truncating at
// K inside one keeps an arbitrary (but deterministic) member of it.
// TestScale (512 nm, K=8), BenchScale (1024 nm, K=12) and the paper scale
// (2048 nm, K=24) all cut between multiplets; the listed K values at
// 2048 nm, and examples/kernelgen's TestScale with K=12, split one.
func TestShippedKernelCountsSplitNoMultiplet(t *testing.T) {
	kernelgen := optics.TestScale()
	kernelgen.NumKernels = 12
	cases := []struct {
		name  string
		c     optics.Config
		split bool
	}{
		{"TestScale", optics.TestScale(), false},
		{"BenchScale", experiments.BenchScale().Optics(), false},
		{"Default", optics.Default(), false},
		{"kernelgen", kernelgen, true},
	}
	for _, k := range []int{2, 6, 10, 14, 19, 23} {
		c := optics.Default()
		c.NumKernels = k
		cases = append(cases, struct {
			name  string
			c     optics.Config
			split bool
		}{"Default", c, true})
	}
	for _, tc := range cases {
		// The weights are the eigenvalues over one common factor, so the
		// full spectrum shows where the requested K cuts.
		all := tc.c
		all.NumKernels = 1 << 10
		m, err := optics.BuildModel(all)
		if err != nil {
			t.Fatal(err)
		}
		w := m.Nominal.Weights
		k := tc.c.NumKernels
		if got := w[k-1]-w[k] <= 1e-9*w[0]; got != tc.split {
			t.Errorf("%s, K=%d: splits a multiplet = %v, want %v (λ_K-1=%g, λ_K=%g)",
				tc.name, k, got, tc.split, w[k-1], w[k])
		}
	}
}
