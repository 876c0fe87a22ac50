package litho

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// The engine contract, split by guarantee strength:
//
//   - EngineBatch is bit-identical to a dense per-kernel pipeline
//     (ApplyKernel + InverseNoNorm + ascending-k AbsSqScaledInto/Add) run
//     on the same mask spectrum — tolerance 0, every worker count, every
//     output — because pruning only skips butterflies on structural zeros.
//   - Its spectrum comes from the two-for-one real-input forward, which
//     reassociates rounding, so against EngineReference (dense forward,
//     dense inverses) it agrees to a tight scaled tolerance.

func newEngineSim(t *testing.T, e FFTEngine, workers int) *Sim {
	t.Helper()
	sim := NewSim(model(t))
	sim.Engine = e
	sim.Workers = workers
	return sim
}

// denseOracle is a test-local dense SOCS pipeline over a given spectrum:
// for each kernel in ascending k, ApplyKernel with the folded scale,
// InverseNoNorm at size m, and the AbsSqScaledInto + Add intensity fold.
// It shares no code with the simulator's lanes beyond the fft primitives.
func denseOracle(t *testing.T, spec *grid.CMat, ks *optics.KernelSet, m int, scale complex128, dose float64) ([]*grid.CMat, *grid.Mat) {
	t.Helper()
	plan, err := fft.NewPlan2(m, m)
	if err != nil {
		t.Fatal(err)
	}
	scale = fft.FoldInverseScale(scale, m, m)
	amps := make([]*grid.CMat, len(ks.Kernels))
	intensity := grid.NewMat(m, m)
	contrib := grid.NewMat(m, m)
	for k, h := range ks.Kernels {
		amps[k] = fft.ApplyKernel(nil, spec, h, m, scale)
		plan.InverseNoNorm(amps[k])
		amps[k].AbsSqScaledInto(contrib, dose*ks.Weights[k])
		intensity.Add(contrib)
	}
	return amps, intensity
}

// denseGradient is the dense reference adjoint of a field's own spectrum:
// EngineReference's Gradient (dense amplitude recompute, dense accumulator
// inverse) over a field that shares f's spectrum but keeps no amplitudes.
func denseGradient(t *testing.T, f *Field, dLdI *grid.Mat) *grid.Mat {
	t.Helper()
	ref := newEngineSim(t, EngineReference, 1)
	g, err := ref.Gradient(&Field{M: f.M, Spec: f.Spec, Dose: f.Dose, KS: f.KS}, dLdI)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The dense lane (EngineReference, and the layouts the batch declines)
// folds Workers-sized kernel chunks in ascending k, so Forward, ForwardEq7
// and both Gradient paths are bit-identical for every worker count — and
// Forward reproduces the test-local dense oracle on its own spectrum.
func TestEngineReferenceDeterministicAcrossWorkers(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(35))
	const n = 128
	mask := randMask(rng, n)
	dLdI := randMask(rng, n)
	base := newEngineSim(t, EngineReference, 1)
	want, err := base.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, oracle := denseOracle(t, want.Spec, mdl.Nominal, n, 1, 1); !want.Intensity.Equal(oracle, 0) {
		t.Error("reference intensity differs from the dense oracle on its own spectrum")
	}
	wantG, err := base.Gradient(want, dLdI)
	if err != nil {
		t.Fatal(err)
	}
	wantE7, err := base.ForwardEq7(mask, 2, mdl.Nominal, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 4, 8} {
		sim := newEngineSim(t, EngineReference, w)
		for _, keep := range []bool{false, true} {
			got, err := sim.Forward(mask, mdl.Nominal, 1, keep)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Intensity.Equal(want.Intensity, 0) {
				t.Errorf("workers=%d keep=%v: reference engine not bit-identical to serial", w, keep)
			}
			g, err := sim.Gradient(got, dLdI)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(wantG, 0) {
				t.Errorf("workers=%d keep=%v: reference gradient not bit-identical to serial", w, keep)
			}
		}
		e7, err := sim.ForwardEq7(mask, 2, mdl.Nominal, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !e7.Intensity.Equal(wantE7.Intensity, 0) {
			t.Errorf("workers=%d: reference Eq7 intensity not bit-identical to serial", w)
		}
	}
}

// An all-zero mask must image to an exactly zero field under every engine
// (the dark-frame invariant other tests assume at tolerance 1e-12 holds
// exactly here).
func TestEnginesDarkFrameExactZero(t *testing.T) {
	mdl := model(t)
	const n = 64
	mask := grid.NewMat(n, n)
	for _, e := range []FFTEngine{EngineBatch, EngineReference} {
		sim := newEngineSim(t, e, 1)
		f, err := sim.Forward(mask, mdl.Nominal, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range f.Intensity.Data {
			if v != 0 || math.Signbit(v) {
				t.Fatalf("engine %d: dark frame pixel %d = %v, want +0", e, i, v)
			}
		}
	}
}

// Tolerance-0 Forward contract of the pruned inverses, which now run
// inside the batched engine: fed the batch field's own spectrum, the
// test-local dense oracle reproduces the intensity and every kept
// amplitude bit-for-bit (each batch lane performs the dense pipeline's
// exact operation sequence minus butterflies on structural zeros;
// physical kernels are not exactly Hermitian, so the conjugate-mirror
// gate stays closed) — across grid sizes, worker counts and keepAmps
// modes.
func TestEngineBandInverseForwardBitIdentical(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 128, 256} {
		mask := randMask(rng, n)
		for _, w := range workerSweep() {
			sim := newEngineSim(t, EngineBatch, w)
			for _, keep := range []bool{false, true} {
				got, err := sim.Forward(mask, mdl.Nominal, 1.02, keep)
				if err != nil {
					t.Fatal(err)
				}
				wantAmps, wantI := denseOracle(t, got.Spec, mdl.Nominal, n, 1, 1.02)
				if !got.Intensity.Equal(wantI, 0) {
					t.Errorf("n=%d workers=%d keep=%v: batched intensity differs from dense oracle", n, w, keep)
				}
				if keep {
					for k := range wantAmps {
						if got.Amps[k].MaxAbsDiff(wantAmps[k]) != 0 {
							t.Errorf("n=%d workers=%d: batched amplitude %d differs from dense oracle", n, w, k)
						}
					}
				}
			}
		}
	}
}

// Same tolerance-0 contract for the truncated Eq. 7 simulation, where the
// pruning engages at the reduced size m = n/s.
func TestEngineBandInverseEq7BitIdentical(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(32))
	const n = 256
	mask := randMask(rng, n)
	for _, s := range []int{1, 2, 4} {
		sc := complex(1/float64(s*s), 0)
		for _, w := range workerSweep() {
			sim := newEngineSim(t, EngineBatch, w)
			got, err := sim.ForwardEq7(mask, s, mdl.Nominal, 0.98)
			if err != nil {
				t.Fatal(err)
			}
			if _, want := denseOracle(t, got.Spec, mdl.Nominal, n/s, sc, 0.98); !got.Intensity.Equal(want, 0) {
				t.Errorf("s=%d workers=%d: batched Eq7 intensity differs from dense oracle", s, w)
			}
		}
	}
}

// Tolerance-0 Gradient contract on both adjoint paths (kept amplitudes,
// and the batched recompute, where the pruned per-kernel inverses run)
// plus the band-limited accumulator inverse: every worker count and
// keepAmps mode reproduces the dense adjoint of the same spectrum, so the
// two paths also agree with each other bit-for-bit.
func TestEngineBandInverseGradientBitIdentical(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{64, 128} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)
		var want *grid.Mat // dense adjoint of the batch spectrum, shared by every run
		for _, w := range workerSweep() {
			sim := newEngineSim(t, EngineBatch, w)
			for _, keep := range []bool{false, true} {
				f, err := sim.Forward(mask, mdl.Nominal, 1, keep)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = denseGradient(t, f, dLdI)
				}
				got, err := sim.Gradient(f, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want, 0) {
					t.Errorf("n=%d workers=%d keep=%v: batched gradient differs from dense adjoint", n, w, keep)
				}
			}
		}
	}
}

// scaleModels builds the BenchScale (1024 nm, K = 12, P = 27) and harness
// (2048 nm, K = 24, P = 35) optical models once per test binary.
var scaleModels = sync.OnceValues(func() ([]*optics.Model, error) {
	var out []*optics.Model
	for _, c := range []struct {
		field float64
		k     int
	}{{1024, 12}, {2048, 24}} {
		oc := optics.Default()
		oc.FieldNM = c.field
		oc.NumKernels = c.k
		m, err := optics.BuildModel(oc)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
})

// The band-output adjoint under EngineBatch is bit-identical to the dense
// per-kernel adjoint (EngineReference: full Forward + KernelAdjointPatch
// per kernel, dense accumulator inverse) of the same field — on the
// kept-amplitude and the recompute path, at every worker count, for the
// BenchScale and harness kernel sets.
func TestGradientBandAdjointMatchesDense(t *testing.T) {
	models, err := scaleModels()
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{32, 64, 128, 256}
	if raceEnabled {
		sizes = sizes[:3] // the m = 256 sweep adds nothing the race detector can see
	}
	rng := rand.New(rand.NewSource(71))
	for _, mdl := range models {
		ks := mdl.Nominal
		for _, n := range sizes {
			if n < ks.P {
				continue
			}
			mask := randMask(rng, n)
			dLdI := randMask(rng, n)
			for _, keep := range []bool{false, true} {
				for _, w := range []int{1, 2, 3, 8} {
					sim := NewSim(mdl)
					sim.Workers = w
					f, err := sim.Forward(mask, ks, 0.9, keep)
					if err != nil {
						t.Fatal(err)
					}
					ref := NewSim(mdl)
					ref.Engine = EngineReference
					ref.Workers = w
					want, err := ref.Gradient(f, dLdI)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sim.Gradient(f, dLdI)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want, 0) {
						t.Errorf("P=%d n=%d keep=%v workers=%d: band adjoint differs from the dense adjoint",
							ks.P, n, keep, w)
					}
				}
			}
		}
	}
}

// The default engine (ForwardReal packing on top of the pruned inverses)
// agrees with the reference to rounding, for both kernel sets. The
// tolerance scales with the intensity magnitude (O(1) under the
// open-frame normalisation): 1e-10 is ~6 decimal orders above the observed
// ulp-level deviation but far below any physically meaningful intensity
// difference.
func TestEngineBandMatchesReferenceClosely(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(34))
	const n, tol = 128, 1e-10
	mask := randMask(rng, n)
	dLdI := randMask(rng, n)
	ref := newEngineSim(t, EngineReference, 1)
	sim := newEngineSim(t, EngineBatch, 1)
	for name, ks := range map[string]*optics.KernelSet{"nominal": mdl.Nominal, "defocus": mdl.Defocus} {
		rf, err := ref.Forward(mask, ks, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := ref.Gradient(rf, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		f, err := sim.Forward(mask, ks, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Intensity.Equal(rf.Intensity, tol) {
			t.Errorf("%s: batched intensity outside rounding tolerance of reference", name)
		}
		g, err := sim.Gradient(f, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(rg, tol) {
			t.Errorf("%s: batched gradient outside rounding tolerance of reference", name)
		}
		e7ref, err := ref.ForwardEq7(mask, 2, ks, 1)
		if err != nil {
			t.Fatal(err)
		}
		e7, err := sim.ForwardEq7(mask, 2, ks, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !e7.Intensity.Equal(e7ref.Intensity, tol) {
			t.Errorf("%s: batched Eq7 intensity outside rounding tolerance of reference", name)
		}
	}
}

// The batched engine agrees with EngineReference to rounding at every
// grid size, worker count and keepAmps mode — Forward, Gradient and
// ForwardEq7 at s ∈ {1, 2, 4} — inherited from the ForwardReal packing,
// the only non-bit-exact substitution (the tolerance-0 side against the
// dense oracle is pinned by the EngineBandInverse tests above); runs under
// -race in the race lane.
func TestEngineBatchEquivalence(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(36))
	const tol = 1e-10
	for _, n := range []int{64, 128, 256} {
		mask := randMask(rng, n)
		dLdI := randMask(rng, n)
		ref := newEngineSim(t, EngineReference, 1)
		refF, err := ref.Forward(mask, mdl.Nominal, 1.02, false)
		if err != nil {
			t.Fatal(err)
		}
		refG, err := ref.Gradient(refF, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		refE7 := map[int]*grid.Mat{}
		for _, s := range []int{1, 2, 4} {
			e7, err := ref.ForwardEq7(mask, s, mdl.Nominal, 0.98)
			if err != nil {
				t.Fatal(err)
			}
			refE7[s] = e7.Intensity
		}
		for _, w := range workerSweep() {
			sim := newEngineSim(t, EngineBatch, w)
			for _, keep := range []bool{false, true} {
				got, err := sim.Forward(mask, mdl.Nominal, 1.02, keep)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Intensity.Equal(refF.Intensity, tol) {
					t.Errorf("n=%d workers=%d keep=%v: batched intensity outside reference tolerance", n, w, keep)
				}
				g, err := sim.Gradient(got, dLdI)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(refG, tol) {
					t.Errorf("n=%d workers=%d keep=%v: batched gradient outside reference tolerance", n, w, keep)
				}
			}
			for _, s := range []int{1, 2, 4} {
				e7, err := sim.ForwardEq7(mask, s, mdl.Nominal, 0.98)
				if err != nil {
					t.Fatal(err)
				}
				if !e7.Intensity.Equal(refE7[s], tol) {
					t.Errorf("n=%d workers=%d s=%d: batched Eq7 intensity outside reference tolerance", n, w, s)
				}
			}
		}
	}
}

// The batched engine stays bit-identical across worker counts: the row
// pass partitions kernels, the column pass partitions disjoint column
// blocks, and every cross-kernel fold is ascending-k within a block.
func TestEngineBatchDeterministicAcrossWorkers(t *testing.T) {
	mdl := model(t)
	rng := rand.New(rand.NewSource(37))
	const n = 128
	mask := randMask(rng, n)
	dLdI := randMask(rng, n)
	base := newEngineSim(t, EngineBatch, 1)
	want, err := base.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := base.Gradient(want, dLdI)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep() {
		sim := newEngineSim(t, EngineBatch, w)
		got, err := sim.Forward(mask, mdl.Nominal, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Intensity.Equal(want.Intensity, 0) {
			t.Errorf("workers=%d: batched engine not bit-identical to serial", w)
		}
		g, err := sim.Gradient(got, dLdI)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(wantG, 0) {
			t.Errorf("workers=%d: batched gradient not bit-identical to serial", w)
		}
	}
}

// Engine string round trip plus the full rejection surface. ParseEngine
// is the validation point for every config path (flags,
// experiments.Config.Engine, the server's JobRequest.Engine), so the
// contract is pinned exhaustively: the "" = default convention, exact-match
// case-sensitive spellings, the removed per-kernel engines rejected, and an
// error that names both valid engines so a typo in any config surface is
// self-explaining.
func TestParseEngine(t *testing.T) {
	valid := []struct {
		in   string
		want FFTEngine
	}{
		{"", EngineBatch}, // "" = leave-as-default convention
		{"batch", EngineBatch},
		{"reference", EngineReference},
	}
	for _, tc := range valid {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
		}
	}
	for _, e := range []FFTEngine{EngineBatch, EngineReference} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("round trip ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}

	invalid := []struct{ name, in string }{
		{"removed engine", "band"},
		{"removed pruning-only engine", "band-inverse"},
		{"unknown word", "warp"},
		{"legacy alias", "dense"},
		{"abbreviation", "ref"},
		{"capitalized", "Batch"},
		{"upper case", "BAND"},
		{"mixed case", "Band-Inverse"},
		{"upper reference", "REFERENCE"},
		{"leading space", " batch"},
		{"trailing space", "batch "},
		{"inner space", "band inverse"},
		{"underscore", "band_inverse"},
		{"no separator", "bandinverse"},
		{"list", "batch,band"},
		{"numeric", "0"},
		{"default keyword", "default"},
	}
	for _, tc := range invalid {
		got, err := ParseEngine(tc.in)
		if err == nil {
			t.Errorf("%s: ParseEngine(%q) = %v, accepted; want error", tc.name, tc.in, got)
			continue
		}
		if got != 0 {
			t.Errorf("%s: ParseEngine(%q) returned engine %v alongside the error", tc.name, tc.in, got)
		}
		msg := err.Error()
		if !strings.Contains(msg, strconv.Quote(tc.in)) {
			t.Errorf("%s: error %q does not echo the rejected input %q", tc.name, msg, tc.in)
		}
		// The error must name every valid spelling: it doubles as the help
		// text on each config surface.
		for _, want := range []string{"batch", "reference"} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: error %q does not name valid engine %q", tc.name, msg, want)
			}
		}
	}
}

// The batched engine preserves the phase vocabulary (litho.socs around the
// row pass, litho.fft_inverse around the column pass) and the kernel-FFT
// counter the observability stack depends on.
func TestBatchEngineTelemetry(t *testing.T) {
	mdl := model(t)
	sim := newEngineSim(t, EngineBatch, 1)
	rec := telemetry.New()
	sim.Recorder = rec

	const n = 64
	mask := grid.NewMat(n, n)
	mask.Fill(1)
	f, err := sim.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, mask); err != nil {
		t.Fatal(err)
	}

	phases := map[string]telemetry.PhaseStat{}
	for _, p := range rec.Phases() {
		phases[p.Name] = p
	}
	for _, name := range []string{"litho.socs", "litho.fft_inverse", "litho.fft_forward", "litho.adjoint"} {
		if phases[name].Count == 0 {
			t.Errorf("phase %s missing under the batched engine: %v", name, rec.Phases())
		}
	}
	nk := len(mdl.Nominal.Kernels)
	c := rec.Counters()
	// One forward SOCS pass plus the gradient recompute path: 2·nk.
	if c["litho.kernel_ffts"] != int64(2*nk) {
		t.Errorf("litho.kernel_ffts = %d, want %d", c["litho.kernel_ffts"], 2*nk)
	}
}

// The dense lane records one caller-side litho.socs span per SOCS call
// (no per-worker spans) and the per-kernel FFT counter, keeping the phase
// vocabulary `tracestat -check` depends on.
func TestReferenceEngineTelemetry(t *testing.T) {
	mdl := model(t)
	sim := newEngineSim(t, EngineReference, 2)
	rec := telemetry.New()
	sim.Recorder = rec

	const n = 64
	mask := grid.NewMat(n, n)
	mask.Fill(1)
	f, err := sim.Forward(mask, mdl.Nominal, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Gradient(f, mask); err != nil {
		t.Fatal(err)
	}

	phases := map[string]telemetry.PhaseStat{}
	for _, p := range rec.Phases() {
		phases[p.Name] = p
	}
	if got := phases["litho.socs"].Count; got != 1 {
		t.Errorf("litho.socs count = %d, want one caller-side span", got)
	}
	if phases["litho.fft_forward"].Count == 0 || phases["litho.adjoint"].Count == 0 {
		t.Errorf("fft_forward/adjoint phases missing: %v", rec.Phases())
	}
	c := rec.Counters()
	nk := len(mdl.Nominal.Kernels)
	// One forward SOCS pass plus the gradient recompute path: 2·nk.
	if c["litho.kernel_ffts"] != int64(2*nk) {
		t.Errorf("litho.kernel_ffts = %d, want %d", c["litho.kernel_ffts"], 2*nk)
	}
}
