package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/telemetry"
)

// Options configures the multi-level ILT optimizer. Zero values are not
// usable; start from DefaultOptions.
type Options struct {
	// Process supplies the forward model and its corners.
	Process *litho.Process
	// Binary is the optimization binary function (paper: sigmoid with
	// β = 4, T_R = 0.5; conventional ILT uses T_R = 0; the cosine of
	// Poonawala & Milanfar is available as mask.Cosine).
	Binary mask.BinaryFunc
	// OutputTR is the T_R used to regenerate the mask for the final hard
	// binarization (paper: 0.4, smaller than the optimization T_R so weak
	// SRAFs survive Eq. 12).
	OutputTR float64
	// LearningRate is the gradient-descent step (paper's ablation: 1).
	LearningRate float64
	// SmoothWindow is the stride-1 average-pooling window applied to the
	// binarized mask in low-resolution iterations (paper: 3; 0 disables,
	// reproducing the "without pooling" column of Fig. 6).
	SmoothWindow int
	// Region constrains optimization to a full-resolution 0/1 region
	// (Fig. 7); nil allows the whole tile.
	Region *grid.Mat
	// Patience > 0 enables early stopping: a stage exits when the loss has
	// not reached a new minimum for Patience iterations (the via flow
	// uses 15).
	Patience int
	// Momentum adds a heavy-ball term to the update (0 disables): the
	// velocity buffer is reset at stage transitions because the parameter
	// grid changes size.
	Momentum float64
	// LineSearch enables the backtracking line search of Zhao & Chu [12]:
	// each step starts from LearningRate and halves (up to 4 times) until
	// the Eq. (5) loss decreases; the last candidate is taken if none do.
	LineSearch bool
	// UseNominalL2 restores the unshortened Eq. (5): the L2 term compares
	// Z_norm (nominal dose) to the target, costing a third simulation per
	// iteration. The paper's shortcut (off) uses Z_out instead.
	UseNominalL2 bool
	// GradHook, when set, can reshape the raw dL/dM′ in place before the
	// region mask and the update are applied. Baselines use it to inject
	// their gradient conditioning (e.g. A2-ILT's spatial attention).
	GradHook func(g *grid.Mat, st Stage)
	// Penalties are optional mask regularizers (TV, curvature) added to the
	// Eq. (5) loss; see Penalty.
	Penalties []Penalty
	// Workers bounds the per-kernel fan-out of the SOCS simulation loops.
	// 0 leaves the process simulator's current setting (whose own default
	// is GOMAXPROCS); a positive value is copied onto Process.Sim by New.
	// Because the simulator is shared, optimizers running concurrently over
	// one Process must agree on this value. Results are bit-identical for
	// every setting.
	Workers int
	// Recorder receives per-iteration trace events (stage index, scale,
	// loss terms, step size, line-search retries, wall time) and stage
	// start/end markers, and is propagated to the process simulator for
	// phase timers. Nil (the default) disables telemetry at zero cost.
	// Like Workers, concurrent optimizers sharing one Process must agree
	// on it; the recorder itself is safe for concurrent use.
	Recorder *telemetry.Recorder
}

// DefaultOptions returns the paper's settings over a process.
func DefaultOptions(p *litho.Process) Options {
	return Options{
		Process:      p,
		Binary:       mask.Sigmoid{Beta: mask.DefaultBeta, TR: 0.5},
		OutputTR:     0.4,
		LearningRate: 1,
		SmoothWindow: 3,
	}
}

// keepAmpsLimit is the largest working-grid side for which the forward
// pass caches per-kernel amplitudes for gradient reuse (memory/speed
// trade-off).
const keepAmpsLimit = 256

// Stage is one level of the multi-level schedule.
type Stage struct {
	// Scale is the resolution scale factor s (1 = full resolution).
	Scale int
	// Iters is the iteration budget of the stage.
	Iters int
	// HighRes selects the flag = 1 branch of Algorithm 1 (coarse mask,
	// exact full-resolution simulation, pooled loss); false selects the
	// flag = 0 low-resolution branch.
	HighRes bool
}

// IterRecord is one point of the optimization trace.
type IterRecord struct {
	Stage int
	Iter  int
	Loss  LossTerms
	// Scale and HighRes identify the stage's resolution level.
	Scale   int
	HighRes bool
	// Step is the committed step size (after line-search halvings) and
	// Retries the number of halvings taken (0 without line search).
	Step    float64
	Retries int
	// Seconds is the iteration's wall time.
	Seconds float64
}

// Result is the outcome of a multi-level ILT run.
type Result struct {
	// Params is the final parameter image M′ upsampled to full resolution.
	Params *grid.Mat
	// Mask is the manufactured mask M_out (Eq. 12 with the output T_R).
	Mask *grid.Mat
	// History traces the optimization loss (Eq. 5, at each stage's own
	// working resolution).
	History []IterRecord
	// ILTSeconds is the wall-clock time spent in ILT iterations
	// (post-processing is accounted separately, as in the paper's TAT
	// breakdown).
	ILTSeconds float64
	// Iterations is the total number of executed iterations.
	Iterations int
}

// Optimizer runs multi-level ILT for one target.
type Optimizer struct {
	opts   Options
	target *grid.Mat // full-resolution target Z_t
	n      int
}

// New validates the configuration and builds an optimizer for the target.
func New(opts Options, target *grid.Mat) (*Optimizer, error) {
	if opts.Process == nil {
		return nil, fmt.Errorf("core: Options.Process is required")
	}
	if target.W != target.H {
		return nil, fmt.Errorf("core: target must be square, got %dx%d", target.W, target.H)
	}
	if target.W&(target.W-1) != 0 {
		return nil, fmt.Errorf("core: target size %d is not a power of two", target.W)
	}
	if opts.Binary == nil {
		return nil, fmt.Errorf("core: Options.Binary is required")
	}
	if opts.LearningRate <= 0 {
		return nil, fmt.Errorf("core: learning rate must be positive, got %g", opts.LearningRate)
	}
	if opts.Momentum < 0 || opts.Momentum >= 1 {
		return nil, fmt.Errorf("core: momentum %g outside [0, 1)", opts.Momentum)
	}
	if opts.SmoothWindow < 0 || (opts.SmoothWindow > 0 && opts.SmoothWindow%2 == 0) {
		return nil, fmt.Errorf("core: smoothing window must be 0 or odd, got %d", opts.SmoothWindow)
	}
	if opts.Region != nil && (opts.Region.W != target.W || opts.Region.H != target.H) {
		return nil, fmt.Errorf("core: region %dx%d does not match target %dx%d",
			opts.Region.W, opts.Region.H, target.W, target.H)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: workers %d must be ≥ 0", opts.Workers)
	}
	if opts.Workers > 0 && opts.Process.Sim.Workers != opts.Workers {
		// Write only on change: optimizers built concurrently over a shared
		// Process (the fullchip tile pool) all carry the pre-applied value
		// and must not race on the simulator's knob.
		opts.Process.Sim.Workers = opts.Workers
	}
	if opts.Recorder.Enabled() && opts.Process.Sim.Recorder != opts.Recorder {
		// Same write-on-change discipline as Workers: concurrent tile
		// optimizers share the pre-applied recorder.
		opts.Process.Sim.Recorder = opts.Recorder
	}
	return &Optimizer{opts: opts, target: target, n: target.W}, nil
}

// Run executes the stages in order (Fig. 2: low-resolution levels from
// coarse to fine, then high-resolution fine-tuning) and assembles the final
// mask.
//
// Cancelling ctx stops the optimization promptly: the context is checked
// before every iteration and before every line-search retry (the two
// places a stage spends its time), so at most one simulation pass runs
// after cancellation and no scratch leases outlive the call. Run returns
// ctx.Err() (wrapped) in that case. Batch callers pass
// context.Background(); the ILT server threads each job's request context
// through here.
func (o *Optimizer) Run(ctx context.Context, stages []Stage) (*Result, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: no stages")
	}
	for i, st := range stages {
		if err := o.validateStage(st); err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", i, err)
		}
	}
	start := time.Now()
	res := &Result{}

	// Algorithm 1 lines 2–3: M′_s is seeded with the pooled target.
	cur := grid.AvgPoolDown(o.target, stages[0].Scale)
	curScale := stages[0].Scale

	for i, st := range stages {
		var err error
		cur, err = resampleParams(cur, curScale, st.Scale)
		if err != nil {
			return nil, fmt.Errorf("core: stage %d transition: %w", i, err)
		}
		curScale = st.Scale
		cur, err = o.runStage(ctx, cur, st, i, res)
		if err != nil {
			return nil, fmt.Errorf("core: stage %d: %w", i, err)
		}
	}
	res.ILTSeconds = time.Since(start).Seconds()

	res.Params = grid.UpsampleNearest(cur, curScale)
	if sig, ok := o.opts.Binary.(mask.Sigmoid); ok {
		// The paper's two-T_R scheme: regenerate with the (smaller) output
		// T_R before the hard threshold so weak SRAFs survive.
		res.Mask = mask.FinalOutput(res.Params, sig.Beta, o.opts.OutputTR, mask.DefaultFinalThreshold)
	} else {
		res.Mask = mask.Binarize(o.opts.Binary.Apply(res.Params), mask.DefaultFinalThreshold)
	}
	if o.opts.Region != nil {
		// Pixels outside the optimizing region are never opened.
		for i, r := range o.opts.Region.Data {
			if r < 0.5 {
				res.Mask.Data[i] = 0
			}
		}
	}
	return res, nil
}

func (o *Optimizer) validateStage(st Stage) error {
	if st.Scale < 1 {
		return fmt.Errorf("scale %d must be ≥ 1", st.Scale)
	}
	if o.n%st.Scale != 0 {
		return fmt.Errorf("scale %d does not divide grid %d", st.Scale, o.n)
	}
	m := o.n / st.Scale
	if m&(m-1) != 0 {
		return fmt.Errorf("working size %d is not a power of two", m)
	}
	p := o.opts.Process.Sim.Model.Nominal.P
	if m < p {
		return fmt.Errorf("working size %d below kernel support %d", m, p)
	}
	if st.Iters < 0 {
		return fmt.Errorf("negative iteration budget %d", st.Iters)
	}
	return nil
}

// resampleParams moves M′ between scale factors (nearest upsample towards
// finer levels, average pooling towards coarser ones).
func resampleParams(mp *grid.Mat, from, to int) (*grid.Mat, error) {
	switch {
	case from == to:
		return mp, nil
	case from > to:
		if from%to != 0 {
			return nil, fmt.Errorf("core: cannot refine params from scale %d to %d", from, to)
		}
		return grid.UpsampleNearest(mp, from/to), nil
	default:
		if to%from != 0 {
			return nil, fmt.Errorf("core: cannot coarsen params from scale %d to %d", from, to)
		}
		return grid.AvgPoolDown(mp, to/from), nil
	}
}

// runStage executes one stage, returning the parameters that achieved the
// best loss (which is also what early stopping resumes from).
func (o *Optimizer) runStage(ctx context.Context, mp *grid.Mat, st Stage, stageIdx int, res *Result) (*grid.Mat, error) {
	ztS := grid.AvgPoolDown(o.target, st.Scale)
	var regionS *grid.Mat
	if o.opts.Region != nil {
		regionS = grid.AvgPoolDown(o.opts.Region, st.Scale)
	}

	best := mp.Clone()
	bestLoss := 0.0
	haveBest := false
	sinceBest := 0
	var velocity *grid.Mat
	if o.opts.Momentum > 0 {
		velocity = grid.NewMat(mp.W, mp.H)
	}

	rec := o.opts.Recorder
	rec.Emit("stage.start", telemetry.Fields{
		"stage": stageIdx, "scale": st.Scale, "highres": st.HighRes, "iters": st.Iters,
	})
	stageStart := time.Now()
	itersRun := 0
	// Resolved once per stage: Observe in the loop is then lock- and
	// allocation-free (and a nil no-op when telemetry is off).
	hIter := rec.Histogram("core.iter", telemetry.HistDuration)

	for it := 0; it < st.Iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterStart := time.Now()
		terms, g, err := o.step(mp, st, ztS, true)
		if err != nil {
			return nil, err
		}
		// Checked before the update and the iter event: no step from a
		// non-finite loss means anything, and JSON cannot encode NaN.
		if loss := terms.Total(); math.IsNaN(loss) || math.IsInf(loss, 0) {
			if rec.Enabled() {
				rec.Emit("stage.diverged", telemetry.Fields{"stage": stageIdx, "iter": it, "scale": st.Scale})
			}
			return nil, &DivergenceError{Stage: stageIdx, Iter: it, Scale: st.Scale}
		}
		if o.opts.GradHook != nil {
			o.opts.GradHook(g, st)
		}
		if regionS != nil {
			mask.ApplyRegion(g, regionS)
		}
		if velocity != nil {
			velocity.Scale(o.opts.Momentum)
			velocity.Add(g)
			g = velocity
		}
		step := o.opts.LearningRate
		retries := 0
		if o.opts.LineSearch {
			step, retries, err = o.lineSearchStep(ctx, mp, g, st, ztS, terms.Total())
			if err != nil {
				return nil, err
			}
		} else {
			mp.AddScaled(-o.opts.LearningRate, g)
		}

		iterDur := time.Since(iterStart)
		hIter.ObserveDuration(iterDur)
		record := IterRecord{
			Stage: stageIdx, Iter: it, Loss: terms,
			Scale: st.Scale, HighRes: st.HighRes,
			Step: step, Retries: retries,
			Seconds: iterDur.Seconds(),
		}
		res.History = append(res.History, record)
		res.Iterations++
		itersRun++
		if rec.Enabled() { // guard: the Fields literal would allocate per iteration
			rec.Emit("iter", telemetry.Fields{
				"stage": stageIdx, "iter": it, "scale": st.Scale,
				"loss": terms.Total(), "l2": terms.L2, "pvb": terms.PVB, "penalty": terms.Penalty,
				"step": step, "retries": retries, "sec": record.Seconds,
			})
		}

		if !haveBest || terms.Total() < bestLoss {
			bestLoss = terms.Total()
			best.CopyFrom(mp)
			haveBest = true
			sinceBest = 0
		} else {
			sinceBest++
			if o.opts.Patience > 0 && sinceBest >= o.opts.Patience {
				break
			}
		}
	}
	rec.Emit("stage.end", telemetry.Fields{
		"stage": stageIdx, "iters_run": itersRun, "best_loss": bestLoss,
		"sec": time.Since(stageStart).Seconds(),
	})
	if !haveBest {
		return mp, nil
	}
	return best, nil
}

// A DivergenceError reports an iteration whose Eq. (5) loss total was NaN
// or ±Inf. Run stops at the first such iteration and returns it wrapped
// with the stage index; match it with errors.As.
type DivergenceError struct {
	Stage, Iter, Scale int
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("loss diverged (NaN or Inf) at iteration %d, scale %d", e.Iter, e.Scale)
}

// lineSearchStep applies the backtracking rule of [12]: starting from the
// configured learning rate, halve the step until the loss at the candidate
// parameters drops below the current loss (up to 4 halvings); the final
// candidate is committed either way. It returns the committed step size
// and the number of halvings taken (for the iteration trace). The context
// is checked before each retry so a cancelled job exits the search without
// paying for the remaining halvings.
func (o *Optimizer) lineSearchStep(ctx context.Context, mp, g *grid.Mat, st Stage, ztS *grid.Mat, curLoss float64) (float64, int, error) {
	step := o.opts.LearningRate
	cand := mp.Clone()
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			return 0, try, err
		}
		cand.CopyFrom(mp)
		cand.AddScaled(-step, g)
		terms, _, err := o.step(cand, st, ztS, false)
		if err != nil {
			return 0, try, err
		}
		if terms.Total() < curLoss || try >= 4 {
			mp.CopyFrom(cand)
			return step, try, nil
		}
		step /= 2
	}
}

// step performs one Algorithm 1 iteration at the stage's level and returns
// the loss terms and, when wantGrad is set, dL/dM′ at the stage's parameter
// resolution (nil otherwise — the loss-only path costs roughly half).
func (o *Optimizer) step(mp *grid.Mat, st Stage, ztS *grid.Mat, wantGrad bool) (LossTerms, *grid.Mat, error) {
	binary := o.opts.Binary

	// Line 5: M_s = f_binary(M′_s).
	ms := binary.Apply(mp)

	if st.HighRes {
		return o.stepHighRes(mp, ms, st, ztS, wantGrad)
	}

	// Low-resolution branch (flag = 0).
	sim := ms
	smoothed := false
	if o.opts.SmoothWindow > 1 {
		// Line 11: stride-1 smoothing pool on the binarized mask.
		sim = grid.SmoothPool(ms, o.opts.SmoothWindow)
		smoothed = true
	}
	keep := wantGrad && sim.W <= keepAmpsLimit

	terms, corners, err := o.simulateLoss(sim, ztS, keep)
	if err != nil {
		return LossTerms{}, nil, err
	}
	if !wantGrad {
		for _, pn := range o.opts.Penalties {
			v, _ := pn.Eval(ms)
			terms.Penalty += v
		}
		return terms, nil, nil
	}

	gSim, err := o.maskGradient(corners)
	if err != nil {
		return LossTerms{}, nil, err
	}
	if smoothed {
		gSim = grid.SmoothPoolAdjoint(gSim, o.opts.SmoothWindow)
	}
	pen, err := o.applyPenalties(ms, gSim)
	if err != nil {
		return LossTerms{}, nil, err
	}
	terms.Penalty = pen
	gSim.MulElem(binary.Grad(mp, ms))
	return terms, gSim, nil
}

// stepHighRes is the flag = 1 branch: coarse parameters, nearest-neighbour
// upsampling, exact simulation, pooled wafer loss (Algorithm 1 lines 7–9).
func (o *Optimizer) stepHighRes(mp, ms *grid.Mat, st Stage, ztS *grid.Mat, wantGrad bool) (LossTerms, *grid.Mat, error) {
	s := st.Scale

	// Line 7: M = Upsample(M_s).
	m := grid.UpsampleNearest(ms, s)
	keep := wantGrad && m.W <= keepAmpsLimit

	// Lines 8–9 fold into simulateLoss: exact simulation at full size with
	// the wafer images pooled down before the loss; the pooling adjoint is
	// applied to the per-corner dL/dZ before the Hopkins adjoint.
	terms, corners, err := o.simulateLossPooled(m, ztS, s, keep)
	if err != nil {
		return LossTerms{}, nil, err
	}
	if !wantGrad {
		for _, pn := range o.opts.Penalties {
			v, _ := pn.Eval(ms)
			terms.Penalty += v
		}
		return terms, nil, nil
	}

	gM, err := o.maskGradient(corners)
	if err != nil {
		return LossTerms{}, nil, err
	}
	// Adjoint of the upsampling back to the coarse parameter grid.
	gMs := grid.UpsampleNearestAdjoint(gM, s)
	pen, err := o.applyPenalties(ms, gMs)
	if err != nil {
		return LossTerms{}, nil, err
	}
	terms.Penalty = pen
	gMs.MulElem(o.opts.Binary.Grad(mp, ms))
	return terms, gMs, nil
}

// cornerTerm carries one simulated corner through the adjoint chain.
type cornerTerm struct {
	field *litho.Field
	z     *grid.Mat // sigmoid wafer image at the working resolution
	gZ    *grid.Mat // dL/dZ at the field's resolution (post pooling adjoint)
}

// simulateLoss runs the corner set of Eq. (5) on a mask at its own
// resolution and returns the loss terms plus the per-corner adjoint inputs.
func (o *Optimizer) simulateLoss(sim *grid.Mat, ztS *grid.Mat, keep bool) (LossTerms, []cornerTerm, error) {
	p := o.opts.Process
	fIn, zIn, err := p.PrintSigmoid(sim, p.Inner(), keep)
	if err != nil {
		return LossTerms{}, nil, err
	}
	fOut, zOut, err := p.PrintSigmoid(sim, p.Outer(), keep)
	if err != nil {
		return LossTerms{}, nil, err
	}
	if o.opts.UseNominalL2 {
		fNom, zNom, err := p.PrintSigmoid(sim, p.Nominal(), keep)
		if err != nil {
			return LossTerms{}, nil, err
		}
		terms, gZNorm, gZIn, gZOut := Loss3(zNom, zIn, zOut, ztS)
		return terms, []cornerTerm{
			{fNom, zNom, gZNorm}, {fIn, zIn, gZIn}, {fOut, zOut, gZOut},
		}, nil
	}
	terms, gZIn, gZOut := Loss(zIn, zOut, ztS)
	return terms, []cornerTerm{{fIn, zIn, gZIn}, {fOut, zOut, gZOut}}, nil
}

// simulateLossPooled is the high-resolution variant: simulate at full size,
// pool the wafer images by s before the loss, and lift each dL/dZ back to
// full resolution with the pooling adjoint.
func (o *Optimizer) simulateLossPooled(m *grid.Mat, ztS *grid.Mat, s int, keep bool) (LossTerms, []cornerTerm, error) {
	terms, corners, err := o.simulateLossAt(m, ztS, s, keep)
	return terms, corners, err
}

func (o *Optimizer) simulateLossAt(m *grid.Mat, ztS *grid.Mat, s int, keep bool) (LossTerms, []cornerTerm, error) {
	p := o.opts.Process
	type sim struct {
		field *litho.Field
		z     *grid.Mat
		zS    *grid.Mat
	}
	runCorner := func(c litho.Corner) (sim, error) {
		f, z, err := p.PrintSigmoid(m, c, keep)
		if err != nil {
			return sim{}, err
		}
		return sim{f, z, grid.AvgPoolDown(z, s)}, nil
	}
	in, err := runCorner(p.Inner())
	if err != nil {
		return LossTerms{}, nil, err
	}
	out, err := runCorner(p.Outer())
	if err != nil {
		return LossTerms{}, nil, err
	}
	if o.opts.UseNominalL2 {
		nom, err := runCorner(p.Nominal())
		if err != nil {
			return LossTerms{}, nil, err
		}
		terms, gN, gI, gO := Loss3(nom.zS, in.zS, out.zS, ztS)
		return terms, []cornerTerm{
			{nom.field, nom.z, grid.AvgPoolDownAdjoint(gN, s)},
			{in.field, in.z, grid.AvgPoolDownAdjoint(gI, s)},
			{out.field, out.z, grid.AvgPoolDownAdjoint(gO, s)},
		}, nil
	}
	terms, gI, gO := Loss(in.zS, out.zS, ztS)
	return terms, []cornerTerm{
		{in.field, in.z, grid.AvgPoolDownAdjoint(gI, s)},
		{out.field, out.z, grid.AvgPoolDownAdjoint(gO, s)},
	}, nil
}

// maskGradient chains each corner's dL/dZ through the sigmoid resist and
// the Hopkins adjoint and sums the contributions.
func (o *Optimizer) maskGradient(corners []cornerTerm) (*grid.Mat, error) {
	p := o.opts.Process
	var total *grid.Mat
	for _, c := range corners {
		dI := litho.ResistSigmoidGrad(c.z, p.Alpha)
		dI.MulElem(c.gZ)
		g, err := p.Sim.Gradient(c.field, dI)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = g
		} else {
			total.Add(g)
		}
	}
	return total, nil
}
