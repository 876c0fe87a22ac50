package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/imgio"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/metrics"
	"repro/internal/post"
	"repro/internal/telemetry"
)

// config is the experiments configuration at the clip's scale.
func (c clip) config() experiments.Config {
	return experiments.Config{N: c.N, FieldNM: c.FieldNM, Kernels: c.Kernels, IterDiv: c.IterDiv}
}

// target generates the clip's layout exactly as iltopt and the server do.
func (c clip) target() (*grid.Mat, error) {
	if c.Via {
		cs, err := bench.ViaCase(c.N, c.FieldNM, c.Case, 6+(c.Case%5)*3)
		return cs.Target, err
	}
	cs, err := bench.PaperCase(c.N, c.FieldNM, c.Case)
	return cs.Target, err
}

// stages is the clip's recipe schedule and early-stopping window.
func (c clip) stages() ([]core.Stage, int, error) {
	switch c.Recipe {
	case "fast":
		return core.ScaleStages(core.FastM1(), c.IterDiv), 0, nil
	case "exact":
		return core.ScaleStages(core.ExactM1(), c.IterDiv), 0, nil
	case "via":
		return core.ScaleStages(core.Via(), c.IterDiv), core.ViaPatience, nil
	}
	return nil, 0, fmt.Errorf("unknown recipe %q", c.Recipe)
}

// inprocRun is the layer breakdown of one in-process clip.
type inprocRun struct {
	Res         *core.Result
	CorePhases  []telemetry.PhaseStat // recorder phases when core.Run returned
	PostSec     float64
	MetricsSec  float64
	FinalPhases []telemetry.PhaseStat
}

// runInProcess optimizes one clip on p the way iltopt does — core.Run,
// post.Clean, metrics.Evaluate — and times it from target in hand to mask
// plus metrics. rec, when non-nil, is attached to the simulator and
// receives the post.clean and metrics.evaluate spans iltopt records.
// Clips with a region option are fingerprinted by the PNG iltopt would
// write (pngDir receives it), others by the optimizer's raw mask.
func runInProcess(ctx context.Context, p *litho.Process, c clip, rec *telemetry.Recorder, pngDir string) (outcome, *inprocRun, error) {
	o := outcome{Clip: c}
	target, err := c.target()
	if err != nil {
		return o, nil, err
	}
	stages, patience, err := c.stages()
	if err != nil {
		return o, nil, err
	}
	cfg := c.config()
	start := time.Now()

	opts := core.DefaultOptions(p)
	opts.Patience = patience
	opts.Recorder = rec
	if c.Region {
		margin, _ := cfg.RegionMargins()
		if opts.Region, err = mask.Region(target, mask.Option1, margin); err != nil {
			return o, nil, err
		}
	}
	opt, err := core.New(opts, target)
	if err != nil {
		return o, nil, err
	}
	run := &inprocRun{}
	if run.Res, err = opt.Run(ctx, stages); err != nil {
		o.Err = err.Error()
		return o, nil, nil
	}
	run.CorePhases = rec.Phases()

	t := time.Now()
	sp := rec.StartSpan("post.clean")
	cleaned := post.Clean(run.Res.Mask, target, post.DefaultOptions(cfg.PixelNM()))
	sp.End()
	run.PostSec = time.Since(t).Seconds()

	t = time.Now()
	spacing, thr := cfg.EPEParams()
	sp = rec.StartSpan("metrics.evaluate")
	rep, err := metrics.Evaluate(p, cleaned.Mask, target, spacing, thr)
	sp.End()
	run.MetricsSec = time.Since(t).Seconds()
	o.Wall = time.Since(start).Seconds()
	run.FinalPhases = rec.Phases()
	if err != nil {
		o.Err = err.Error()
		return o, run, nil
	}
	rep = rep.Scale(cfg.PixelNM())
	o.L2, o.PVB, o.EPE, o.Shots = rep.L2, rep.PVB, rep.EPE, rep.Shots

	if !c.Region {
		o.Mask = maskFingerprint(run.Res.Mask)
		return o, run, nil
	}
	path := filepath.Join(pngDir, "inproc_mask.png")
	if err := imgio.WritePNG(path, cleaned.Mask); err != nil {
		return o, nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return o, nil, err
	}
	o.Mask = fileFingerprint(b)
	return o, run, nil
}
