package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/litho"
	"repro/internal/report"
)

// referenceProcess returns a process over p's model that runs the dense
// EngineReference: the paper's cost model, in which Eq. 3 runs every
// kernel's transforms at the full working size. The timing experiments
// measure the paper's claims on it and report the default engine next to
// it (EXPERIMENTS.md, "Timing claims"). p itself is returned when it
// already runs the reference.
func referenceProcess(p *litho.Process) *litho.Process {
	if p.Sim.Engine == litho.EngineReference {
		return p
	}
	ref := litho.NewProcess(p.Sim.Model)
	ref.Sim.Workers = p.Sim.Workers
	ref.Sim.Recorder = p.Sim.Recorder
	ref.Sim.Engine = litho.EngineReference
	return ref
}

// ForwardTiming reproduces the in-text Section III-B experiment: 200
// forward lithography simulations with Eq. (3) (exact), Eq. (7)
// (frequency-truncated) and Eq. (8) (pooled mask), scale factor 4. The
// paper reports 8.173 s / 0.767 s / 0.466 s on an RTX 3090; the shape to
// reproduce is Eq. 8 < Eq. 7 ≪ Eq. 3. The measured columns time the
// reference engine; the last column times the default engine, whose exact
// Eq. 3 is Eq. 7 plus an interpolation.
func ForwardTiming(c Config, sims int) (*report.Table, error) {
	p, err := c.Process()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	if sims < 1 {
		sims = 200 / c.IterDiv
		if sims < 10 {
			sims = 10
		}
	}
	const scale = 4
	ks := p.Sim.Model.Nominal
	pooled := poolTarget(cs, scale)

	run := func(name string, f func() error) (float64, error) {
		// One warm-up builds the FFT plans outside the timed region.
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		start := time.Now()
		for i := 0; i < sims; i++ {
			if err := f(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		sec := time.Since(start).Seconds()
		c.logf("timing: %s — %d sims in %.3fs", name, sims, sec)
		return sec, nil
	}
	// secs[i] holds Eq. 3, Eq. 7 and Eq. 8 on the reference (i = 0) and
	// the default engine (i = 1).
	var secs [2][3]float64
	for i, proc := range []*litho.Process{referenceProcess(p), p} {
		sim := proc.Sim
		for j, v := range []struct {
			name string
			f    func() error
		}{
			{"eq3", func() error { _, err := sim.Forward(cs.Target, ks, 1, false); return err }},
			{"eq7", func() error { _, err := sim.ForwardEq7(cs.Target, scale, ks, 1); return err }},
			{"eq8", func() error { _, err := sim.Forward(pooled, ks, 1, false); return err }},
		} {
			if secs[i][j], err = run(sim.Engine.String()+" "+v.name, v.f); err != nil {
				return nil, err
			}
		}
	}
	eq3, eq7, eq8 := secs[0][0], secs[0][1], secs[0][2]

	t := report.NewTable(
		fmt.Sprintf("§III-B — %d forward simulations, s=%d, N=%d", sims, scale, c.N),
		"variant", "measured (s)", "speedup vs Eq.3", "paper (s)", "paper speedup", "default engine (s)")
	t.Add("Eq. (3) exact", report.F(eq3, 3), "1.00",
		report.F(PaperForwardTiming.Eq3, 3), "1.00", report.F(secs[1][0], 3))
	t.Add("Eq. (7) truncated", report.F(eq7, 3), report.Ratio(eq3, eq7),
		report.F(PaperForwardTiming.Eq7, 3), report.Ratio(PaperForwardTiming.Eq3, PaperForwardTiming.Eq7),
		report.F(secs[1][1], 3))
	t.Add("Eq. (8) pooled mask", report.F(eq8, 3), report.Ratio(eq3, eq8),
		report.F(PaperForwardTiming.Eq8, 3), report.Ratio(PaperForwardTiming.Eq3, PaperForwardTiming.Eq8),
		report.F(secs[1][2], 3))
	t.Note("expected shape: Eq.8 ≤ Eq.7 ≪ Eq.3 (absolute values are CPU-vs-GPU), measured on the reference engine")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "forward_timing.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// IterationTime measures the average per-iteration wall time of the
// low-resolution (s = 4), high-resolution (s = 4) and full-resolution ILT
// loops — the basis of the paper's "low-res ILT is about 18× faster" and
// ">2× total iteration-time reduction" claims — on the reference engine,
// with the default engine's times in the last column.
func IterationTime(c Config, iters int) (*report.Table, error) {
	p, err := c.Process()
	if err != nil {
		return nil, err
	}
	cs, err := c.m1Case(1)
	if err != nil {
		return nil, err
	}
	if iters < 1 {
		iters = maxInt(2, 20/c.IterDiv)
	}
	type variant struct {
		name  string
		stage core.Stage
	}
	variants := []variant{
		{"low-res (s=4)", core.Stage{Scale: 4, Iters: iters}},
		{"high-res (s=4)", core.Stage{Scale: 4, Iters: iters, HighRes: true}},
		{"full-res (s=1)", core.Stage{Scale: 1, Iters: iters}},
	}
	t := report.NewTable(
		fmt.Sprintf("Per-iteration ILT time (%d iterations each, N=%d)", iters, c.N),
		"variant", "total (s)", "ms/iteration", "vs low-res", "default engine ms/iteration")
	// per[i] holds the variants' seconds per iteration on the reference
	// (i = 0) and the default engine (i = 1).
	var per [2][]float64
	for i, proc := range []*litho.Process{referenceProcess(p), p} {
		for _, v := range variants {
			opts := core.DefaultOptions(proc)
			o, err := core.New(opts, cs.Target)
			if err != nil {
				return nil, err
			}
			res, err := o.Run(context.Background(), []core.Stage{v.stage})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.name, err)
			}
			per[i] = append(per[i], res.ILTSeconds/float64(res.Iterations))
			c.logf("itertime: %s %s — %.2f ms/iteration", proc.Sim.Engine, v.name, per[i][len(per[i])-1]*1000)
		}
	}
	for j, v := range variants {
		t.Add(v.name, report.F(per[0][j]*float64(iters), 3),
			report.F(per[0][j]*1000, 2), report.Ratio(per[0][j], per[0][0]), report.F(per[1][j]*1000, 2))
	}
	t.Note("paper: low-res ≈ 18× faster than high-res at s=4 on GPU; the CPU ratio tracks the same FFT-size asymptotics")
	if c.OutDir != "" {
		if err := t.SaveCSV(filepath.Join(c.OutDir, "iteration_time.csv")); err != nil {
			return nil, err
		}
	}
	return t, nil
}
