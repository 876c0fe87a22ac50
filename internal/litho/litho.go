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
// FFT engine (see DESIGN.md, "FFT engine", "FFT engine v2" and "FFT engine
// v3: Nyquist small grid"): by default the simulator runs the batched
// engine — all kernel products and pruned inverse transforms of one SOCS
// call advance through a single cache-blocked pass, with the inverse
// normalisation and SOCS scale folded into the multiply, the mask spectrum
// from the two-for-one real-input forward (identical to rounding), and the
// intensity fold fused into the column transforms. Every per-kernel
// transform runs on the Nyquist grid m′ (SOCSGrid: the smallest power of
// two ≥ 2P−1) whenever m′ is below the working size n: the amplitudes are
// band-limited to ±P/2, so the intensity's exact samples on m′ (Eq. 7)
// determine it, and one interpolation gives the n-grid image (Eq. 3); the
// adjoint likewise runs at m′ on dL/dI's ±(P−1) band. Sim.Engine selects
// between this default and the dense EngineReference oracle.
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
	// (fft.Plan2.ForwardRealBand) and runs the whole kernel set through one
	// batched multiply + pruned inverse (fft.MulRowsBatch/InverseColumns):
	// shared twiddle loads, four rows/columns in lockstep, the intensity
	// fold fused into the column pass. Given the same spectrum it is
	// bit-identical to dense per-kernel ApplyKernel + InverseNoNorm inverses
	// folded in ascending k; see DESIGN.md, "FFT engine v2". Above the
	// Nyquist grid (SOCSGrid(n, P) < n) that pass runs at m′, not n: Forward
	// samples the image there (Eq. 7) and Fourier-interpolates it to n, and
	// Gradient runs its per-kernel adjoint there on dL/dI's band — exact,
	// and within rounding of EngineReference; see DESIGN.md, "FFT engine
	// v3: Nyquist small grid".
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
	M int // working grid size
	// AmpM is the side of the grid the per-kernel amplitudes live on: M,
	// or the Nyquist grid m′ < M (SOCSGrid) the batch engine samples them
	// on.
	AmpM      int
	Spec      *grid.CMat   // unnormalised FFT of the input mask (n×n; under EngineBatch only the kernel-band columns are filled)
	Amps      []*grid.CMat // per-kernel amplitude fields A_k on the AmpM grid, or nil
	Intensity *grid.Mat    // aerial image including the dose factor
	Dose      float64
	KS        *optics.KernelSet
}

// nyquistGrid is the smallest power-of-two grid (at least 4) that holds
// the ±(P−1) band of an intensity built from P×P kernels without
// aliasing: m′ ≥ 2P−1. The same bound, m′ ≥ 4h+1 with h = P/2, keeps the
// ±3h band of an adjoint product dI ⊙ A_k from folding into the ±h band
// the patch reads.
func nyquistGrid(p int) int {
	m := 4
	for m < 2*p-1 {
		m *= 2
	}
	return m
}

// SOCSGrid returns the side of the grid on which an n×n Forward with
// P×P kernels runs its per-kernel transforms and keeps its amplitudes:
// the Nyquist grid m′ when the batch engine can sample there (m′ < n),
// n otherwise (and always n under EngineReference).
func (s *Sim) SOCSGrid(n, p int) int {
	if m := nyquistGrid(p); s.Engine == EngineBatch && m < n {
		return m
	}
	return n
}

// socsScale is the Eq. 7 amplitude scale 1/s² of sampling an n-grid
// simulation on the m = n/s grid (exactly 1 at m = n).
func socsScale(n, m int) complex128 {
	sc := n / m
	return complex(1/float64(sc*sc), 0)
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
// engine. The SOCS products read only the spectrum columns |fx| ≤ half
// (half = P/2), so the batch engine packs the real input two-for-one and
// column-transforms only those (ForwardRealBand: ForwardReal's bits in the
// band, zeros elsewhere); the reference runs the dense transform.
func (s *Sim) maskSpectrum(plan *fft.Plan2, mask *grid.Mat, half int) *grid.CMat {
	sp := s.Recorder.StartSpan("litho.fft_forward")
	defer sp.End()
	if s.Engine == EngineBatch {
		spec := grid.NewCMat(mask.W, mask.H)
		plan.ForwardRealBand(spec, mask, half)
		return spec
	}
	spec := grid.ComplexFromReal(mask)
	plan.Forward(spec)
	return spec
}

// accumulateSOCS runs the per-kernel SOCS loop of sampleSOCS: amplitude
// A_k = F⁻¹(scale·H_k ⊙ spec) at size m, intensity += dose·w_k·|A_k|². The
// inverse-FFT 1/m² normalisation is folded into the kernel multiply
// (fft.FoldInverseScale) on both lanes, so each amplitude buffer is
// touched one fewer time; both lanes fold through the same expression,
// preserving their equivalence.
//
// Lanes: EngineBatch hands the whole kernel set to fft.MulRowsBatch /
// InverseColumns (batchSOCS). EngineReference, and the layouts the batch
// declines (P = 1 on m ≤ 2, or no kernels), take the dense lane: kernels advance in chunks of
// kernelWorkers, each chunk's dense ApplyKernel + InverseNoNorm + |A_k|²
// contributions run in parallel into pooled buffers, and the chunk folds
// into intensity on the calling goroutine in ascending k. Live scratch is
// bounded by the chunk, not by the kernel count, and the reduction order
// is fixed — the batch fuses the same ascending-k fold into its disjoint
// column blocks — so every worker count produces the same bits on both
// lanes, and the batch lane reproduces the dense lane's bits when both are
// handed the same spectrum.
//
// Telemetry: the batch records one litho.socs span around the row pass and
// one litho.fft_inverse span around the column pass; the dense lane
// records one caller-side litho.socs span (per-worker spans would
// double-count wall time and break the `tracestat -check` phase-coverage bound).
func (s *Sim) accumulateSOCS(f *Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool, intensity *grid.Mat) {
	ks := f.KS
	nk := len(ks.Kernels)
	workers := s.kernelWorkers(nk)
	folded := fft.FoldInverseScale(scale, m, m)
	s.Recorder.Add("litho.kernel_ffts", int64(nk))

	if s.Engine == EngineBatch && s.batchSOCS(f, plan, spec, m, folded, keepAmps, workers, intensity) {
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
			intensity.Add(contribs[k])
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
func (s *Sim) batchSOCS(f *Field, plan *fft.Plan2, spec *grid.CMat, m int, scale complex128, keepAmps bool, workers int, intensity *grid.Mat) bool {
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
	var outs []*grid.CMat
	if keepAmps {
		for k := range f.Amps {
			f.Amps[k] = grid.NewCMat(m, m)
		}
		outs = f.Amps
	}
	sp.End()
	spi := s.Recorder.StartSpan("litho.fft_inverse")
	b.InverseColumns(outs, f.Dose, ks.Weights, intensity)
	spi.End()
	return true
}

// plans returns the n-point working plan and the m-point SOCS plan (the
// same plan when m = n).
func (s *Sim) plans(n, m int) (*fft.Plan2, *fft.Plan2, error) {
	planN, err := s.Plan(n)
	if err != nil || m == n {
		return planN, planN, err
	}
	planM, err := s.Plan(m)
	return planN, planM, err
}

// sampleSOCS is the SOCS core Forward and ForwardEq7 share: the mask
// spectrum at n = f.M into f.Spec, then the samples of the exact aerial
// image on the m = n/s grid of planM (Eq. 7: each kernel product truncated
// to m with scale 1/s², its inverse at m) folded into intensity, which
// must be m×m and zeroed. Kept amplitudes live on the m grid.
func (s *Sim) sampleSOCS(f *Field, mask *grid.Mat, planN, planM *fft.Plan2, keepAmps bool, intensity *grid.Mat) {
	n, m := planN.W(), planM.W()
	// The kernel products read only the P×P band of the mask spectrum.
	f.Spec = s.maskSpectrum(planN, mask, f.KS.P/2)
	if keepAmps {
		f.Amps = make([]*grid.CMat, len(f.KS.Kernels))
	}
	s.accumulateSOCS(f, planM, f.Spec, m, socsScale(n, m), keepAmps, intensity)
}

// resampleBand writes into dst the ±half band of the real image src,
// resampled onto dst's grid: the forward transform of src at its size
// (only the band columns when src is the large grid), the band copied with
// src's 1/size² normalisation (fft.CopyBand) and the band inverse at dst's
// size; dst receives the real part. From a
// small grid to a large one this Fourier-interpolates samples of an image
// band-limited to ±half — exactly, when the small grid exceeds 2·half+1;
// from a large grid to a small one it samples the ±half band of src.
// Scratch comes from the pools; the transforms themselves fan out over
// the plans' workers and are bit-identical for every worker count.
func (s *Sim) resampleBand(dst, src *grid.Mat, from, to *fft.Plan2, half int) {
	sn, dn := src.W, dst.W
	spec := s.cscratch.Get(sn, sn)
	if sn < dn {
		// The small grid is mostly band: its whole transform costs about
		// the same and runs without fan-out.
		from.ForwardReal(spec, src)
	} else {
		from.ForwardRealBand(spec, src, half)
	}
	band := s.cscratch.Get(dn, dn)
	fft.CopyBand(band, spec, half, complex(1/float64(sn*sn), 0))
	s.cscratch.Put(spec)
	img := s.cscratch.Get(dn, dn)
	to.InverseBandNoNorm(img, band, fft.BandSpec{Half: half})
	s.cscratch.Put(band)
	img.RealInto(dst)
	s.cscratch.Put(img)
}

// Forward runs the exact SOCS simulation (Eq. 3) of the mask at its own
// resolution: I = dose · Σ_k w_k |F⁻¹(H_k ⊙ F(M))|². With a mask already
// downsampled by the caller this is exactly Eq. (8) of the paper — the
// approximation the low-resolution ILT optimises against. Set keepAmps when
// a gradient pass will follow and memory allows (24 complex fields on the
// SOCSGrid).
//
// Under EngineBatch with a Nyquist grid m′ = SOCSGrid(n, P) < n, Forward is
// Eq. 7 followed by interpolation: every amplitude is band-limited to ±h
// (h = P/2), so the intensity is band-limited to ±2h and its exact samples
// on m′ ≥ 4h+1 (sampleSOCS) determine it. One forward transform at m′,
// the ±2h band scaled by 1/m′², and one band inverse at n (resampleBand,
// inside a litho.fft_inverse span) give the n-grid image, equal to the
// per-kernel n-sized pipeline to rounding.
func (s *Sim) Forward(mask *grid.Mat, ks *optics.KernelSet, dose float64, keepAmps bool) (*Field, error) {
	if err := s.checkMask(mask, ks.P); err != nil {
		return nil, err
	}
	n := mask.W
	m := s.SOCSGrid(n, ks.P)
	planN, planM, err := s.plans(n, m)
	if err != nil {
		return nil, err
	}
	f := &Field{M: n, AmpM: m, Dose: dose, KS: ks, Intensity: grid.NewMat(n, n)}
	if m == n {
		s.sampleSOCS(f, mask, planN, planM, keepAmps, f.Intensity)
	} else {
		samples := s.mscratch.Get(m, m)
		samples.Zero()
		s.sampleSOCS(f, mask, planN, planM, keepAmps, samples)
		sp := s.Recorder.StartSpan("litho.fft_inverse")
		s.resampleBand(f.Intensity, samples, planM, planN, 2*(ks.P/2))
		sp.End()
		s.mscratch.Put(samples)
	}
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
	planN, planM, err := s.plans(n, m)
	if err != nil {
		return nil, err
	}
	f := &Field{M: n, AmpM: m, Dose: dose, KS: ks, Intensity: grid.NewMat(m, m)}
	s.sampleSOCS(f, mask, planN, planM, false, f.Intensity)
	f.M = m
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
// frequency patch (adjoint); the patches are folded into the
// frequency-domain accumulator in ascending k, so only one final inverse
// FFT is needed and the result is bit-identical for every worker count.
//
// On a field whose amplitudes live on a Nyquist grid m′ < M, the patches
// are computed at m′: the ±h band of F(dLdI ⊙ A_k) reads only the ±2h band
// of dLdI, and at m′ ≥ 4h+1 the product's ±3h band cannot alias into ±h.
// So dLdI's ±2h band is resampled onto m′ first (resampleBand, inside the
// litho.adjoint span), and patchScale over m′ carries the (M/m′)² factor.
func (s *Sim) Gradient(f *Field, dLdI *grid.Mat) (*grid.Mat, error) {
	if dLdI.W != f.M || dLdI.H != f.M {
		return nil, fmt.Errorf("litho: dLdI size %dx%d != field size %d", dLdI.W, dLdI.H, f.M)
	}
	if f.Amps == nil && (f.Spec.W != f.M || f.Spec.H != f.M) {
		// Fields from ForwardEq7 keep the full-size spectrum; their adjoint
		// is not implemented (the optimizer only differentiates Forward).
		return nil, fmt.Errorf("litho: gradient of a truncated (Eq. 7) field is not supported")
	}
	m := f.AmpM
	plan, planM, err := s.plans(f.M, m)
	if err != nil {
		return nil, err
	}
	sp := s.Recorder.StartSpan("litho.adjoint")
	defer sp.End()
	s.Recorder.Add("litho.adjoint_calls", 1)
	out := grid.NewMat(f.M, f.M)
	if m == f.M {
		s.adjoint(out, f, plan, planM, dLdI)
		return out, nil
	}
	dI := s.mscratch.Get(m, m)
	s.resampleBand(dI, dLdI, plan, planM, 2*(f.KS.P/2))
	s.adjoint(out, f, plan, planM, dI)
	s.mscratch.Put(dI)
	return out, nil
}

// adjoint is the per-kernel body of Gradient: the P×P patch of every
// kernel from dI (on the m-point amplitude grid of planM) and the
// amplitudes, their ascending-k fold into the band of an M-point
// accumulator, and its one inverse on plan, whose real part lands in out.
//
// Lanes: EngineBatch computes the patches with fft.AdjointPatches
// (batchAdjoint), which runs only the band-column transforms the patch
// reads; EngineReference, and the layouts the batch declines, run the
// dense per-kernel Forward + KernelAdjointPatch (adjointPatch). Both lanes
// produce the same patch bits from the same amplitudes.
func (s *Sim) adjoint(out *grid.Mat, f *Field, plan, planM *fft.Plan2, dI *grid.Mat) {
	m := dI.W
	nk := len(f.KS.Kernels)
	p := f.KS.P
	workers := s.kernelWorkers(nk)
	// The amplitude recompute (fields without kept amps) folds the inverse
	// normalisation into the kernel multiply, like the forward pass; the
	// adjoint patch weight likewise absorbs the final inverse's 1/m².
	ampScale := fft.FoldInverseScale(socsScale(f.M, m), m, m)
	if f.Amps == nil {
		s.Recorder.Add("litho.kernel_ffts", int64(nk))
	}
	patchesp, patches := s.kscratch.Get(nk)
	if s.Engine != EngineBatch || !s.batchAdjoint(f, planM, dI, patches, ampScale, workers) {
		grid.ParallelFor(workers, nk, func(k int) {
			var amp *grid.CMat
			if f.Amps != nil {
				amp = f.Amps[k]
			} else {
				amp = fft.ApplyKernel(s.cscratch.Get(m, m), f.Spec, f.KS.Kernels[k], m, ampScale)
				planM.InverseNoNorm(amp)
			}
			patches[k] = s.adjointPatch(f, planM, amp, dI, k)
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
	if useBand {
		img := s.cscratch.Get(f.M, f.M)
		plan.InverseBandNoNorm(img, acc, accBand)
		img.RealInto(out)
		s.cscratch.Put(img)
	} else {
		plan.InverseNoNorm(acc)
		acc.RealInto(out)
	}
	s.cscratch.Put(acc)
}

// patchScale is kernel k's adjoint patch weight 2·w_k·dose with the
// 1/m² of the amplitude grid m folded in — shared by both lanes so their
// patches agree bit-for-bit. At m = M it is the final inverse's 1/M²; at a
// Nyquist grid m′ < M it also carries the (M/m′)² that turns an m′-point
// transform of the product's samples into the M-point one.
func patchScale(f *Field, k, m int) complex128 {
	return fft.FoldInverseScale(complex(2*f.KS.Weights[k]*f.Dose, 0), m, m)
}

// adjointPatch is the dense lane's per-kernel adjoint contribution on the
// amplitude grid: B_k = dI ⊙ A_k, its full forward transform, and the P×P
// frequency patch weighted by patchScale.
func (s *Sim) adjointPatch(f *Field, plan *fft.Plan2, amp *grid.CMat, dI *grid.Mat, k int) *grid.CMat {
	m := amp.W
	prod := s.cscratch.Get(m, m)
	for i, v := range amp.Data {
		prod.Data[i] = v * complex(dI.Data[i], 0)
	}
	plan.Forward(prod)
	patch := fft.KernelAdjointPatch(s.cscratch.Get(f.KS.P, f.KS.P), prod, f.KS.Kernels[k], patchScale(f, k, m))
	s.cscratch.Put(prod)
	//lint:ignore scratchalias the returned patch is pool-leased on purpose: Gradient owns it for the duration of the fold loop and Puts every entry of patches right after AddKernelPatch
	return patch
}

// batchAdjoint is the EngineBatch lane of Gradient on the m-point
// amplitude grid: fft.AdjointPatches turns amplitudes into patches with
// only the band-column transforms the patch reads. Kept amplitudes go
// through it in one call; otherwise the amplitudes are regenerated through
// MulRowsBatch/InverseColumns in chunks (bounding the live amplitude
// memory to ~chunk·m² complex values instead of nk·m²) and each chunk goes
// through the same call. The batch reproduces the dense lane's amplitude
// bits and AdjointPatches its patch bits, so both paths match the dense
// lane exactly. Reports false, with patches left nil, when the batch
// layout does not apply.
func (s *Sim) batchAdjoint(f *Field, plan *fft.Plan2, dI *grid.Mat, patches []*grid.CMat, ampScale complex128, workers int) bool {
	ks := f.KS
	nk := len(ks.Kernels)
	m := dI.W
	// Per-kernel patch weights, leased as one pooled 1×nk complex row.
	scales := s.cscratch.Get(nk, 1)
	for k := range patches {
		patches[k] = s.cscratch.Get(ks.P, ks.P)
		scales.Data[k] = patchScale(f, k, m)
	}
	ok := true
	if f.Amps != nil {
		ok = plan.AdjointPatches(patches, f.Amps, dI, ks.Kernels, scales.Data, workers)
	} else {
		chunk := min(max(workers, 4), nk)
		ampsp, amps := s.kscratch.Get(chunk)
		for i := range amps {
			amps[i] = s.cscratch.Get(m, m)
		}
		for c0 := 0; ok && c0 < nk; c0 += chunk {
			c1 := min(c0+chunk, nk)
			b := plan.MulRowsBatch(f.Spec, ks.Kernels[c0:c1], ampScale, true, workers)
			if b == nil {
				ok = false // layout constraint: fails on the first chunk or never
				break
			}
			b.InverseColumns(amps[:c1-c0], 0, nil, nil)
			ok = plan.AdjointPatches(patches[c0:c1], amps[:c1-c0], dI, ks.Kernels[c0:c1], scales.Data[c0:c1], workers)
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
