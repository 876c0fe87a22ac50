package fft

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func randMatFFT(rng *rand.Rand, n int) *grid.Mat {
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// denseAdjointPatch is the dense oracle of AdjointPatches for one kernel:
// the full Plan2.Forward of dLdI ⊙ amp, then KernelAdjointPatch.
func denseAdjointPatch(plan *Plan2, amp *grid.CMat, dLdI *grid.Mat, kernel *grid.CMat, scale complex128) *grid.CMat {
	prod := grid.NewCMat(amp.W, amp.H)
	for i, v := range amp.Data {
		prod.Data[i] = v * complex(dLdI.Data[i], 0)
	}
	plan.Forward(prod)
	return KernelAdjointPatch(nil, prod, kernel, scale)
}

// adjointCase builds nk random amplitudes, kernels of support pk, scales
// and (stale-filled) patch buffers for an m×m plan.
func adjointCase(rng *rand.Rand, m, pk, nk int) (amps, kernels, patches []*grid.CMat, scales []complex128) {
	for k := 0; k < nk; k++ {
		amps = append(amps, randCMatFFT(rng, m, m))
		kernels = append(kernels, randCMatFFT(rng, pk, pk))
		patches = append(patches, randCMatFFT(rng, pk, pk)) // stale contents must be overwritten
		scales = append(scales, complex(rng.Float64()*2-1, rng.Float64()*2-1))
	}
	return amps, kernels, patches, scales
}

// The band-output adjoint is bit-for-bit the dense Forward + patch gather,
// for every odd support whose band leaves part of the grid uncovered —
// including lane groups that end part-way (2h+1 not a multiple of four,
// e.g. P = 27 on m = 32: seven groups, the last holding three columns) —
// and for every worker count.
func TestAdjointPatchesBitIdenticalToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, m := range []int{8, 16, 32, 64, 128, 256} {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		dLdI := randMatFFT(rng, m)
		for pk := 1; pk <= m; pk += 2 {
			if (BandSpec{Half: pk / 2}).Covers(m) {
				continue
			}
			nk := 1 + pk%5 // 1–5 kernels: fewer than, equal to and more than the workers
			amps, kernels, patches, scales := adjointCase(rng, m, pk, nk)
			want := make([]*grid.CMat, nk)
			for k := range want {
				want[k] = denseAdjointPatch(plan, amps[k], dLdI, kernels[k], scales[k])
			}
			for _, w := range []int{1, 2, 3, 8} {
				if !plan.AdjointPatches(patches, amps, dLdI, kernels, scales, w) {
					t.Fatalf("m=%d P=%d: AdjointPatches declined a batch layout", m, pk)
				}
				for k := range want {
					if i, ok := equalBits(patches[k], want[k]); !ok {
						t.Fatalf("m=%d P=%d workers=%d kernel %d: cell %d = %v, dense %v",
							m, pk, w, k, i, patches[k].Data[i], want[k].Data[i])
					}
				}
			}
		}
	}
}

// The layouts the batch declines — no kernels, m not a multiple of four,
// a band covering the grid (for an odd P ≤ a power-of-two m, both need
// P = 1 on m ≤ 2) — return false and leave the patches untouched, so the
// caller runs the dense lane.
func TestAdjointPatchesFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	plan16, err := NewPlan2(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan16.AdjointPatches(nil, nil, randMatFFT(rng, 16), nil, nil, 1) {
		t.Error("empty kernel set should decline")
	}
	for _, m := range []int{1, 2} {
		plan, err := NewPlan2(m, m)
		if err != nil {
			t.Fatal(err)
		}
		amps, kernels, patches, scales := adjointCase(rng, m, 1, 1)
		before := patches[0].Clone()
		if plan.AdjointPatches(patches, amps, randMatFFT(rng, m), kernels, scales, 1) {
			t.Errorf("m=%d P=1: AdjointPatches should decline", m)
		}
		if _, ok := equalBits(patches[0], before); !ok {
			t.Errorf("m=%d: a declined AdjointPatches wrote its patch", m)
		}
	}
}
