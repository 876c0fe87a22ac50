package main

import (
	"context"
	"runtime/metrics"
	"time"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/litho"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// timeCall runs f until it has taken minBatterySec in total (at least
// minBatteryReps times) and returns the median duration with its count.
func timeCall(f func() error) (float64, int, error) {
	const minBatterySec, minBatteryReps, maxBatteryReps = 0.4, 5, 200
	var ds []float64
	for len(ds) < minBatteryReps || (sum(ds) < minBatterySec && len(ds) < maxBatteryReps) {
		t := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return median(ds), len(ds), nil
}

// directLayers times untraced calls into the litho and fft layers at the
// workload's sizes: the full-resolution forward and gradient, the Eq. 7
// forward at s = 4, the forward with one worker, and 2-D FFTs at N and at
// the smallest working size lowM.
func directLayers(rep *report, model *optics.Model, target *grid.Mat, lowM int) error {
	ks := model.Nominal
	p := litho.NewProcess(model)
	p1 := litho.NewProcess(model)
	p1.Sim.Workers = 1
	fwd := func(p *litho.Process) func() error {
		return func() error { _, err := p.Sim.Forward(target, ks, 1, false); return err }
	}
	kept, err := p.Sim.Forward(target, ks, 1, true)
	if err != nil {
		return err
	}
	calls := []struct {
		name string
		f    func() error
	}{
		{"litho.forward_s", fwd(p)},
		{"litho.forward_w1_s", fwd(p1)},
		{"litho.gradient_s", func() error { _, err := p.Sim.Gradient(kept, kept.Intensity); return err }},
		{"litho.forward_eq7_s", func() error { _, err := p.Sim.ForwardEq7(target, 4, ks, 1); return err }},
	}
	for _, c := range calls {
		if err := c.f(); err != nil { // warm the plan caches outside the timing
			return err
		}
		v, n, err := timeCall(c.f)
		if err != nil {
			return err
		}
		rep.set(c.name, v, "s", n)
	}
	rep.set("litho.forward_speedup", rep.get("litho.forward_w1_s")/rep.get("litho.forward_s"), "ratio",
		rep.metrics["litho.forward_s"].N)

	for _, f := range []struct {
		name string
		m    int
	}{{"fft.forward_full_s", target.W}, {"fft.forward_low_s", lowM}} {
		plan, err := fft.NewPlan2(f.m, f.m)
		if err != nil {
			return err
		}
		src := grid.NewCMat(f.m, f.m)
		for i := range src.Data {
			src.Data[i] = complex(target.Data[i], 0)
		}
		buf := grid.NewCMat(f.m, f.m)
		var ds []float64
		for len(ds) < 5 || (sum(ds) < 0.2 && len(ds) < 2000) {
			copy(buf.Data, src.Data)
			t := time.Now()
			plan.Forward(buf)
			ds = append(ds, time.Since(t).Seconds())
		}
		rep.set(f.name, median(ds), "s", len(ds))
	}
	return nil
}

// tracedClip runs one clip in-process with a recorder on a fresh process
// over model and reports the core, litho, post, metrics and runtime layers
// from it. It returns the clip's outcome for the ledger and the trace
// coverage: the recorder's phase seconds over the clip's wall time.
func tracedClip(ctx context.Context, rep *report, model *optics.Model, c clip, pngDir string) (outcome, float64, error) {
	rec := telemetry.New()
	p := litho.NewProcess(model)
	before := readRuntime()
	o, run, err := runInProcess(ctx, p, c, rec, pngDir)
	if err != nil || run == nil {
		return o, 0, err
	}
	after := readRuntime()
	rep.set("runtime.alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20), "MiB", 1)
	rep.set("runtime.gc_cpu_s", after.gcCPUSec-before.gcCPUSec, "s", 1)

	res := run.Res
	rep.set("core.run_s", res.ILTSeconds, "s", 1)
	rep.set("core.iterations", float64(res.Iterations), "count", 1)
	var low, high []float64
	for _, h := range res.History {
		if h.HighRes {
			high = append(high, h.Seconds)
		} else {
			low = append(low, h.Seconds)
		}
	}
	rep.set("core.lowres_iter_s", median(low), "s", len(low))
	rep.set("core.highres_iter_s", median(high), "s", len(high))
	rep.set("core.self_s", res.ILTSeconds-lithoBusy(run.CorePhases), "s", 1)
	rep.set("post.clean_s", run.PostSec, "s", 1)
	rep.set("metrics.evaluate_s", run.MetricsSec, "s", 1)

	// Layer totals over the whole clip, as the program's spans and
	// counters report them.
	for _, ph := range []string{"fft_forward", "socs", "fft_inverse", "adjoint"} {
		sec, n := phase(run.FinalPhases, "litho."+ph)
		rep.set("litho."+ph+"_s", sec, "s", int(n))
	}
	counters := rec.Counters()
	for _, k := range []string{"forward_sims", "eq7_sims", "adjoint_calls", "kernel_ffts", "plan_builds", "plan_hits"} {
		rep.set("litho."+k, float64(counters["litho."+k]), "count", 1)
	}
	total := 0.0
	for _, ph := range run.FinalPhases {
		total += ph.Seconds
	}
	return o, total / o.Wall, nil
}

// attribute splits a clip's wall time into disjoint layer shares: the
// cold kernel build (optics; zero when set-up built the model), litho busy
// inside core.Run, core's own time, post, metrics (including its exact
// simulations) and the rest (for an iltopt process: process start, target
// generation, artifact writing).
func attribute(rep *report, wall, optics float64) {
	run, self := rep.get("core.run_s"), rep.get("core.self_s")
	post, eval := rep.get("post.clean_s"), rep.get("metrics.evaluate_s")
	for _, s := range []struct {
		name string
		sec  float64
	}{
		{"optics", optics}, {"litho", run - self}, {"core_self", self},
		{"post", post}, {"metrics", eval}, {"other", wall - optics - run - post - eval},
	} {
		rep.set("share."+s.name, s.sec/wall, "ratio", 1)
	}
}

func phase(ps []telemetry.PhaseStat, name string) (float64, int64) {
	for _, p := range ps {
		if p.Name == name {
			return p.Seconds, p.Count
		}
	}
	return 0, 0
}

// lithoBusy sums the litho layer's span seconds.
func lithoBusy(ps []telemetry.PhaseStat) float64 {
	t := 0.0
	for _, ph := range []string{"fft_forward", "socs", "fft_inverse", "adjoint"} {
		sec, _ := phase(ps, "litho."+ph)
		t += sec
	}
	return t
}

// serverLayers reports the server layer from its recorder and the POST
// reply times the clients measured.
func serverLayers(rep *report, rec *telemetry.Recorder, submits []float64) {
	rep.set("server.submit_s", median(submits), "s", len(submits))
	for _, h := range rec.Histograms() {
		switch h.Name {
		case "server.queue_wait", "server.run":
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			rep.set(h.Name+"_s", mean, "s", int(h.Count))
		}
	}
	counters := rec.Counters()
	for _, k := range []string{"model_builds", "model_hits", "jobs_rejected_full", "jobs_failed"} {
		rep.set("server."+k, float64(counters["server."+k]), "count", 1)
	}
}

type runtimeSnap struct{ allocBytes, gcCPUSec float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSnap{allocBytes: float64(s[0].Value.Uint64()), gcCPUSec: s[1].Value.Float64()}
}
