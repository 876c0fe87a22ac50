// Package litho implements the forward lithography model of the paper:
// the Hopkins/SOCS aerial-image computation in its exact (Eq. 3),
// frequency-truncated low-resolution (Eq. 7) and approximate low-resolution
// (Eq. 8) forms, the constant-threshold (Eq. 1) and sigmoid (Eq. 9) resist
// models, the three process corners used for PVBand, and the adjoint of the
// aerial image with respect to the mask, which powers every gradient in the
// ILT optimizer.
//
// Normalisation convention (see DESIGN.md): the forward FFT is unnormalised
// and the inverse carries 1/n², which combined with open-frame-normalised
// kernels makes the aerial intensity invariant across resolution levels —
// the same I_th applies at every scale factor, exactly as Algorithm 1
// assumes.
//
// Concurrency (see DESIGN.md, "Concurrency model"): the per-kernel SOCS
// loops of Forward, ForwardEq7 and Gradient fan out across Workers
// goroutines with pool-backed private scratch, and every cross-kernel
// reduction is a strictly k-ordered fold of precomputed per-kernel
// contributions — so the result is bit-identical for every worker count,
// including the serial path.
//
// FFT engine (see DESIGN.md, "FFT engine" and "FFT engine v2"): by default
// the simulator runs the batched engine — all kernel products and pruned
// inverse transforms of one SOCS call advance through a single cache-blocked
// pass, with the inverse normalisation and SOCS scale folded into the
// multiply, the mask spectrum from the two-for-one real-input forward
// (identical to rounding), and the intensity fold fused into the column
// transforms. Sim.Engine selects between this default and the dense
// EngineReference oracle.
package litho

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// FFTEngine selects the FFT execution paths of a Sim. The kernels populate
// only a P×P band of each product spectrum, so the per-kernel inverse
// transforms can prune the rows and butterfly blocks that are structurally
// zero; the mask itself is real, so its forward transform can pack row pairs
// two-for-one. Pruning is bit-identical to the dense transform, the
// real-input packing is identical only to rounding.
type FFTEngine int

const (
	// EngineBatch (the default) packs the real mask two-for-one
	// (fft.Plan2.ForwardReal) and runs the whole kernel set through one
	// batched multiply + pruned inverse (fft.MulRowsBatch/InverseColumns):
	// shared twiddle loads, four rows/columns in lockstep, the intensity
	// fold fused into the column pass. Given the same spectrum it is
	// bit-identical to dense per-kernel ApplyKernel + InverseNoNorm inverses
	// folded in ascending k, hence agrees with EngineReference to rounding
	// (from the forward packing only); see DESIGN.md, "FFT engine v2".
	EngineBatch FFTEngine = iota
	// EngineReference is the dense engine — dense forward transform, dense
	// per-kernel inverses — retained as the oracle the equivalence tests
	// compare against.
	EngineReference
)

// String returns the flag spelling of the engine.
func (e FFTEngine) String() string {
	switch e {
	case EngineBatch:
		return "batch"
	case EngineReference:
		return "reference"
	}
	return fmt.Sprintf("FFTEngine(%d)", int(e))
}

// ParseEngine maps a flag/config spelling to an engine. The empty string
// selects the default (EngineBatch), so option structs can use "" for
// "leave as is".
func ParseEngine(s string) (FFTEngine, error) {
	switch s {
	case "", "batch":
		return EngineBatch, nil
	case "reference":
		return EngineReference, nil
	}
	return 0, fmt.Errorf("litho: unknown FFT engine %q (want batch or reference)", s)
}

// Sim owns the FFT plan cache and runs forward/adjoint simulations for one
// optical model. It is safe for concurrent use.
type Sim struct {
	Model *optics.Model
	// Workers bounds the per-kernel fan-out of the SOCS loops; ≤ 0 selects
	// runtime.GOMAXPROCS(0). Results are bit-identical for every value.
	// Set it before sharing the Sim across goroutines.
	Workers int
	// Engine selects the FFT execution paths; the zero value is the
	// batched default. Set it before sharing the Sim across goroutines.
	Engine FFTEngine
	// Recorder receives phase timers (litho.fft_forward, litho.socs,
	// litho.fft_inverse, litho.adjoint) and simulation counters. Nil (the
	// default) disables telemetry at zero cost — the instrumented paths
	// perform no extra allocations. Set it before sharing the Sim across
	// goroutines.
	Recorder *telemetry.Recorder
	// Plans, when non-nil, is a shared FFT-plan cache. Long-running
	// processes (the ILT server) point every per-job Sim at one cache so
	// plan construction is amortized across jobs, not just across the
	// iterations of one optimization. Nil (the default) gives the Sim a
	// private cache. Set it before the first simulation.
	Plans *fft.PlanCache

	ownPlans   fft.PlanCache
	planBuilds atomic.Int32

	cscratch grid.CMatPool      // complex per-worker scratch (amplitudes, spectra)
	mscratch grid.MatPool       // real per-kernel intensity contributions
	kscratch grid.CMatSlicePool // per-call []*CMat work lists (patches, amp chunks)
}

// NewSim creates a simulator over a built kernel model.
func NewSim(model *optics.Model) *Sim {
	return &Sim{Model: model}
}

// Plan returns (building if needed) the 2-D FFT plan for size m. Plan
// construction happens exactly once per size per cache, no matter how many
// goroutines ask concurrently; with a shared Plans cache, once per size
// per process.
func (s *Sim) Plan(m int) (*fft.Plan2, error) {
	cache := s.Plans
	if cache == nil {
		cache = &s.ownPlans
	}
	var t0 time.Time
	if s.Recorder.Enabled() {
		t0 = time.Now()
	}
	plan, built, err := cache.Get(m)
	if built {
		s.planBuilds.Add(1)
		s.Recorder.Add("litho.plan_builds", 1)
		if !t0.IsZero() {
			// Time spent waiting on the singleflight build, as seen by this
			// requester (losers of the race observe their wait, which is the
			// latency the caller actually paid).
			s.Recorder.Histogram("fft.plan_build", telemetry.HistDuration).ObserveDuration(time.Since(t0))
		}
	} else if err == nil {
		s.Recorder.Add("litho.plan_hits", 1)
	}
	return plan, err
}

// kernelWorkers resolves the effective fan-out for a k-kernel loop.
func (s *Sim) kernelWorkers(k int) int {
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > k {
		w = k
	}
	return w
}

// Field is the retained state of one forward simulation, sufficient to run
// the adjoint pass. Amps is only populated when the forward call was asked
// to keep per-kernel amplitudes (cheaper gradients at the cost of memory);
// otherwise the gradient pass recomputes each amplitude from Spec.
type Field struct {
	M         int          // working grid size
	Spec      *grid.CMat   // unnormalised FFT of the input mask (n×n; under EngineBatch, ForwardEq7 fills only the kernel-band columns)
	Amps      []*grid.CMat // per-kernel amplitude fields A_k, or nil
	Intensity *grid.Mat    // aerial image including the dose factor
	Dose      float64
	KS        *optics.KernelSet
}

func (s *Sim) checkMask(mask *grid.Mat, p int) error {
	if mask.W != mask.H {
		return fmt.Errorf("litho: mask must be square, got %dx%d", mask.W, mask.H)
	}
	if mask.W&(mask.W-1) != 0 {
		return fmt.Errorf("litho: mask size %d is not a power of two", mask.W)
	}
	if mask.W < p {
		return fmt.Errorf("litho: mask size %d smaller than kernel support %d", mask.W, p)
	}
	return nil
}

// maskSpectrum computes the unnormalised FFT of the mask under the active
// engine: the batch engine packs the real input two-for-one (ForwardReal),
// the reference runs the dense transform. half ≥ 0 declares that the
// caller reads only the spectrum columns |fx| ≤ half (ForwardEq7), so the
// batch engine column-transforms only those (ForwardRealBand, same bits in
// the band); half < 0 asks for the whole spectrum.
func (s *Sim) maskSpectrum(plan *fft.Plan2, mask *grid.Mat, half int) *grid.CMat {
	sp := s.Recorder.StartSpan("litho.fft_forward")
	defer sp.End()
	if s.Engine == EngineBatch {
		spec := grid.NewCMat(mask.W, mask.H)
		if half >= 0 {
			plan.ForwardRealBand(spec, mask, half)
		} else {
			plan.ForwardReal(spec, mask)
		}
		return spec
	}
	spec := grid.ComplexFromReal(mask)
	plan.Forward(spec)
	return spec
}

// accumulateSOCS runs the per-kernel SOCS loop shared by Forward and
// ForwardEq7: amplitude A_k = F⁻¹(scale·H_k ⊙ spec) at size m, intensity
// += dose·w_k·|A_k|². The inverse-FFT 1/m² normalisation is folded into
// the kernel multiply (fft.FoldInverseScale) on both lanes, so each
// amplitude buffer is touched one fewer time; both lanes fold through the
// same expression, preserving their equivalence.
//
// Lanes: EngineBatch hands the whole kernel set to fft.MulRowsBatch /
// InverseColumns (batchSOCS). EngineReference, and the layouts the batch
// declines (P = 1 on m ≤ 2, or no kernels), take the dense lane: kernels
// advance in chunks of kernelWorkers, each chunk's dense ApplyKernel +
// InverseNoNorm + |A_k|² contributions run in parallel into pooled
// buffers, and the chunk folds into f.Intensity on the calling goroutine
// in ascending k. Live scratch is bounded by the chunk, not by the kernel
// count, and the reduction order is fixed — the batch fuses the same
// ascending-k fold into its disjoint column blocks — so every worker count
// produces the same bits on both lanes, and the batch lane reproduces the
// dense lane's bits when both are handed the same spectrum.
//
// Telemetry: the batch records one litho.socs span around the row pass and
// one litho.fft_inverse span around the column pass; the dense lane
// records one caller-side litho.socs span (per-worker spans would
// double-count wall time and break the `tracestat -check` phase-coverage bound).
func (s *Sim) accumulateSOCS(f *Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool) {
	ks := f.KS
	nk := len(ks.Kernels)
	workers := s.kernelWorkers(nk)
	folded := fft.FoldInverseScale(scale, m, m)
	s.Recorder.Add("litho.kernel_ffts", int64(nk))

	if s.Engine == EngineBatch && s.batchSOCS(f, plan, spec, m, folded, keepAmps, workers) {
		return
	}

	sp := s.Recorder.StartSpan("litho.socs")
	contribs := make([]*grid.Mat, nk)
	for c0 := 0; c0 < nk; c0 += workers {
		c1 := min(c0+workers, nk)
		grid.ParallelFor(workers, c1-c0, func(j int) {
			k := c0 + j
			var amp *grid.CMat
			if keepAmps {
				amp = fft.ApplyKernel(nil, spec, ks.Kernels[k], m, folded)
				f.Amps[k] = amp
			} else {
				amp = fft.ApplyKernel(s.cscratch.Get(m, m), spec, ks.Kernels[k], m, folded)
			}
			plan.InverseNoNorm(amp)
			c := s.mscratch.Get(m, m)
			amp.AbsSqScaledInto(c, f.Dose*ks.Weights[k])
			contribs[k] = c
			if !keepAmps {
				s.cscratch.Put(amp)
			}
		})
		for k := c0; k < c1; k++ {
			f.Intensity.Add(contribs[k])
			s.mscratch.Put(contribs[k])
		}
	}
	sp.End()
}

// batchSOCS is the EngineBatch lane of accumulateSOCS: the kernel multiply
// and pruned inverse row transforms for all kernels run in one batched pass
// (litho.socs span), then the column transforms with the fused ascending-k
// intensity fold (litho.fft_inverse span). scale must already carry the
// folded 1/m² (accumulateSOCS does this). Reports false when the batch
// layout does not apply so the caller falls back to the dense lane.
func (s *Sim) batchSOCS(f *Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool, workers int) bool {
	ks := f.KS
	sp := s.Recorder.StartSpan("litho.socs")
	// The mask spectrum comes from a real mask, so it is Hermitian (to
	// rounding) — the batch halves the row work for any exactly-Hermitian
	// kernel; physical kernels carry defocus phase and keep the gate
	// closed, so this path stays bit-identical to the dense lane.
	b := plan.MulRowsBatch(spec, ks.Kernels, scale, true, workers)
	if b == nil {
		sp.End()
		return false
	}
	weights := make([]float64, len(ks.Kernels))
	for k := range weights {
		weights[k] = f.Dose * ks.Weights[k]
	}
	var outs []*grid.CMat
	if keepAmps {
		for k := range f.Amps {
			f.Amps[k] = grid.NewCMat(m, m)
		}
		outs = f.Amps
	}
	sp.End()
	spi := s.Recorder.StartSpan("litho.fft_inverse")
	b.InverseColumns(outs, weights, f.Intensity)
	spi.End()
	return true
}

// Forward runs the exact SOCS simulation (Eq. 3) of the mask at its own
// resolution: I = dose · Σ_k w_k |F⁻¹(H_k ⊙ F(M))|². With a mask already
// downsampled by the caller this is exactly Eq. (8) of the paper — the
// approximation the low-resolution ILT optimises against. Set keepAmps when
// a gradient pass will follow and memory allows (24 complex fields).
func (s *Sim) Forward(mask *grid.Mat, ks *optics.KernelSet, dose float64, keepAmps bool) (*Field, error) {
	if err := s.checkMask(mask, ks.P); err != nil {
		return nil, err
	}
	m := mask.W
	plan, err := s.Plan(m)
	if err != nil {
		return nil, err
	}
	spec := s.maskSpectrum(plan, mask, -1)

	f := &Field{M: m, Spec: spec, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m)}
	if keepAmps {
		f.Amps = make([]*grid.CMat, len(ks.Kernels))
	}
	s.accumulateSOCS(f, plan, spec, m, 1, keepAmps)
	s.Recorder.Add("litho.forward_sims", 1)
	return f, nil
}

// ForwardEq7 runs the frequency-truncated low-resolution simulation of
// Eq. (7): the mask stays at full resolution n, its spectrum is multiplied
// by each kernel, truncated to m = n/s with the 1/s² scale, and
// inverse-transformed at size m. The result equals the exact aerial image
// sampled every s pixels (the kernel support lies inside the retained band).
func (s *Sim) ForwardEq7(mask *grid.Mat, scale int, ks *optics.KernelSet, dose float64) (*Field, error) {
	if err := s.checkMask(mask, ks.P); err != nil {
		return nil, err
	}
	if scale < 1 {
		return nil, fmt.Errorf("litho: scale %d must be ≥ 1", scale)
	}
	n := mask.W
	if n%scale != 0 {
		return nil, fmt.Errorf("litho: mask size %d not divisible by scale %d", n, scale)
	}
	m := n / scale
	if m < ks.P {
		return nil, fmt.Errorf("litho: reduced size %d smaller than kernel support %d", m, ks.P)
	}
	if m&(m-1) != 0 {
		return nil, fmt.Errorf("litho: reduced size %d is not a power of two", m)
	}
	planN, err := s.Plan(n)
	if err != nil {
		return nil, err
	}
	planM, err := s.Plan(m)
	if err != nil {
		return nil, err
	}
	// Eq. 7 multiplies only the P×P kernel band of the full-size spectrum.
	spec := s.maskSpectrum(planN, mask, ks.P/2)

	f := &Field{M: m, Spec: spec, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m)}
	sc := complex(1/float64(scale*scale), 0)
	s.accumulateSOCS(f, planM, spec, m, sc, false)
	s.Recorder.Add("litho.eq7_sims", 1)
	return f, nil
}

// Gradient computes dL/dM for a Field produced by Forward, given dL/dI at
// the working resolution:
//
//	dL/dM = Σ_k 2·w_k·dose · Re[ F⁻¹( conj(H_k) ⊙ F( dLdI ⊙ A_k ) ) ].
//
// Amplitudes are taken from the field when kept, otherwise recomputed from
// the retained mask spectrum. Each kernel contributes a dense P×P
// frequency patch; the patches are folded into the frequency-domain
// accumulator in ascending k, so only one final inverse FFT is needed and
// the result is bit-identical for every worker count.
//
// Lanes: EngineBatch computes the patches with fft.AdjointPatches
// (batchAdjoint), which runs only the band-column transforms the patch
// reads; EngineReference, and the layouts the batch declines, run the
// dense per-kernel Forward + KernelAdjointPatch (adjointPatch). Both lanes
// produce the same patch bits from the same amplitudes.
func (s *Sim) Gradient(f *Field, dLdI *grid.Mat) (*grid.Mat, error) {
	if dLdI.W != f.M || dLdI.H != f.M {
		//lint:ignore escape error-path boxing of the size operands into the fmt args; never reached by a converging optimization
		return nil, fmt.Errorf("litho: dLdI size %dx%d != field size %d", dLdI.W, dLdI.H, f.M)
	}
	if f.Amps == nil && (f.Spec.W != f.M || f.Spec.H != f.M) {
		// Fields from ForwardEq7 keep the full-size spectrum; their adjoint
		// is not implemented (the optimizer only differentiates Forward).
		return nil, fmt.Errorf("litho: gradient of a truncated (Eq. 7) field is not supported")
	}
	plan, err := s.Plan(f.M)
	if err != nil {
		return nil, err
	}
	sp := s.Recorder.StartSpan("litho.adjoint")
	defer sp.End()
	s.Recorder.Add("litho.adjoint_calls", 1)
	nk := len(f.KS.Kernels)
	p := f.KS.P
	workers := s.kernelWorkers(nk)
	// The amplitude recompute (fields without kept amps) folds the inverse
	// normalisation into the kernel multiply, like the forward pass; the
	// adjoint patch weight likewise absorbs the final inverse's 1/m².
	ampScale := fft.FoldInverseScale(1, f.M, f.M)
	if f.Amps == nil {
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
	}
	patchesp, patches := s.kscratch.Get(nk)
	if s.Engine != EngineBatch || !s.batchAdjoint(f, plan, dLdI, patches, ampScale, workers) {
		grid.ParallelFor(workers, nk, func(k int) {
			var amp *grid.CMat
			if f.Amps != nil {
				amp = f.Amps[k]
			} else {
				amp = fft.ApplyKernel(s.cscratch.Get(f.M, f.M), f.Spec, f.KS.Kernels[k], f.M, ampScale)
				plan.InverseNoNorm(amp)
			}
			patches[k] = s.adjointPatch(f, plan, amp, dLdI, k)
			if f.Amps == nil {
				s.cscratch.Put(amp)
			}
		})
	}
	// The patch fold only populates the P×P band of acc, so the batch
	// engine clears just those rows and runs the pruned out-of-place
	// inverse — bit-identical to the dense Zero + Inverse below.
	accBand := fft.BandSpec{Half: p / 2}
	acc := s.cscratch.Get(f.M, f.M)
	useBand := s.Engine == EngineBatch && !accBand.Covers(f.M)
	if useBand {
		accBand.ZeroRows(acc)
	} else {
		acc.Zero()
	}
	for _, patch := range patches {
		fft.AddKernelPatch(acc, patch)
		s.cscratch.Put(patch)
	}
	s.kscratch.Put(patchesp)
	var out *grid.Mat
	if useBand {
		img := s.cscratch.Get(f.M, f.M)
		plan.InverseBandNoNorm(img, acc, accBand)
		out = img.Real()
		s.cscratch.Put(img)
	} else {
		plan.InverseNoNorm(acc)
		out = acc.Real()
	}
	s.cscratch.Put(acc)
	return out, nil
}

// patchScale is kernel k's adjoint patch weight 2·w_k·dose with the final
// inverse's 1/m² folded in — shared by both lanes so their patches agree
// bit-for-bit.
func patchScale(f *Field, k int) complex128 {
	return fft.FoldInverseScale(complex(2*f.KS.Weights[k]*f.Dose, 0), f.M, f.M)
}

// adjointPatch is the dense lane's per-kernel adjoint contribution:
// B_k = dLdI ⊙ A_k, its full forward transform, and the P×P frequency
// patch weighted by patchScale.
func (s *Sim) adjointPatch(f *Field, plan *fft.Plan2, amp *grid.CMat, dLdI *grid.Mat, k int) *grid.CMat {
	prod := s.cscratch.Get(f.M, f.M)
	for i, v := range amp.Data {
		prod.Data[i] = v * complex(dLdI.Data[i], 0)
	}
	plan.Forward(prod)
	patch := fft.KernelAdjointPatch(s.cscratch.Get(f.KS.P, f.KS.P), prod, f.KS.Kernels[k], patchScale(f, k))
	s.cscratch.Put(prod)
	//lint:ignore scratchalias the returned patch is pool-leased on purpose: Gradient owns it for the duration of the fold loop and Puts every entry of patches right after AddKernelPatch
	return patch
}

// batchAdjoint is the EngineBatch lane of Gradient: fft.AdjointPatches
// turns amplitudes into patches with only the band-column transforms the
// patch reads. Kept amplitudes go through it in one call; otherwise the
// amplitudes are regenerated through MulRowsBatch/InverseColumns in chunks
// (bounding the live amplitude memory to ~chunk·m² complex values instead
// of nk·m²) and each chunk goes through the same call. The batch
// reproduces the dense lane's amplitude bits and AdjointPatches its patch
// bits, so both paths match the dense lane exactly. Reports false, with
// patches left nil, when the batch layout does not apply.
func (s *Sim) batchAdjoint(f *Field, plan *fft.Plan2, dLdI *grid.Mat, patches []*grid.CMat, ampScale complex128, workers int) bool {
	ks := f.KS
	nk := len(ks.Kernels)
	// Per-kernel patch weights, leased as one pooled 1×nk complex row.
	scales := s.cscratch.Get(nk, 1)
	for k := range patches {
		patches[k] = s.cscratch.Get(ks.P, ks.P)
		scales.Data[k] = patchScale(f, k)
	}
	ok := true
	if f.Amps != nil {
		ok = plan.AdjointPatches(patches, f.Amps, dLdI, ks.Kernels, scales.Data, workers)
	} else {
		chunk := min(max(workers, 4), nk)
		ampsp, amps := s.kscratch.Get(chunk)
		for i := range amps {
			amps[i] = s.cscratch.Get(f.M, f.M)
		}
		for c0 := 0; ok && c0 < nk; c0 += chunk {
			c1 := min(c0+chunk, nk)
			b := plan.MulRowsBatch(f.Spec, ks.Kernels[c0:c1], ampScale, true, workers)
			if b == nil {
				ok = false // layout constraint: fails on the first chunk or never
				break
			}
			b.InverseColumns(amps[:c1-c0], nil, nil)
			ok = plan.AdjointPatches(patches[c0:c1], amps[:c1-c0], dLdI, ks.Kernels[c0:c1], scales.Data[c0:c1], workers)
		}
		for i := range amps {
			s.cscratch.Put(amps[i])
		}
		s.kscratch.Put(ampsp)
	}
	s.cscratch.Put(scales)
	if !ok {
		for k := range patches {
			s.cscratch.Put(patches[k])
			patches[k] = nil
		}
	}
	return ok
}
