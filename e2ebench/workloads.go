package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/litho"
	"repro/internal/optics"
)

const (
	// setupProbeCount extra cold set-ups in fresh processes join the run's
	// own set-up in the setup_s median.
	setupProbeCount = 2
	// servePerLayerJobs is the fixed job count of the traced serve loop:
	// one balanced block, so its counters repeat exactly for a seed.
	servePerLayerJobs = 4 * m1Cases
)

// warmClip is the daemon's warm-up job: it builds the kernel model and
// the FFT plans before the closed loop starts.
var warmClip = func() clip { c := small; c.Case = 1; return c }()

// setupOnce performs one cold set-up of an in-process workload and
// returns its duration.
func setupOnce(workload string) (float64, error) {
	switch workload {
	case "via-warm":
		_, sec, err := setupVia()
		return sec, err
	case "serve-m1-warm":
		d, sec, err := setupServe()
		if err != nil {
			return 0, err
		}
		return sec, d.stop()
	}
	return 0, fmt.Errorf("workload %s has no in-process set-up", workload)
}

// setupVia is a cold experiments.Config.Process() at the via scale: the
// time until the first iteration can start.
func setupVia() (*litho.Process, float64, error) {
	clips, err := genClips("via-warm", 1, 1)
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	p, err := clips[0].config().Process()
	return p, time.Since(t).Seconds(), err
}

// setupServe starts the daemon and runs the warm-up job to completion.
func setupServe() (*daemon, float64, error) {
	t := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, 0, err
	}
	o, _, err := d.submit(warmClip)
	if err == nil && o.Err != "" {
		err = errors.New(o.Err)
	}
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("warm-up job: %w", err), d.stop())
	}
	return d, time.Since(t).Seconds(), nil
}

// buildModelCold times a cold optics.BuildModel at the clip's scale. The
// model cache is per process, so this must be the process's first build
// of that configuration.
func buildModelCold(rep *report, c clip) (*optics.Model, error) {
	t := time.Now()
	m, err := optics.BuildModel(c.config().Optics())
	rep.set("optics.build_model_s", time.Since(t).Seconds(), "s", 1)
	return m, err
}

// --- cli-m1-cold ----------------------------------------------------------

func cliWorkload(e *env) error {
	clips, err := genClips(e.workload, e.seed, e.clips)
	if err != nil {
		return err
	}
	var setups []float64
	rss := 0.0
	start := time.Now()
	for i, c := range clips {
		o, info, err := runCLI(e.ctx, e.iltopt, e.work, c, fmt.Sprintf("clip%d", i), false)
		if err != nil {
			return err
		}
		if e.led.add(o) {
			setups = append(setups, info.SetupSec)
		}
		rss = max(rss, info.PeakRSSMB)
	}
	loop := time.Since(start).Seconds()
	e.rep.set("setup_s", median(setups), "s", len(setups))
	e.rep.set("clips_per_s", float64(len(e.led.done))/loop, "1/s", len(e.led.done))
	e.rep.set("peak_rss_mb", rss, "MiB", e.led.attempted)
	return nil
}

// cliLayers runs the first clip as an untraced and a traced iltopt
// process (trace overhead and coverage), then in-process at the same
// scale for the layer breakdown, then once through the daemon.
func cliLayers(e *env) error {
	clips, err := genClips(e.workload, e.seed, 1)
	if err != nil {
		return err
	}
	c := clips[0]
	u, uInfo, err := runCLI(e.ctx, e.iltopt, e.work, c, "untraced", false)
	if err != nil {
		return err
	}
	t, info, err := runCLI(e.ctx, e.iltopt, e.work, c, "traced", true)
	if err != nil {
		return err
	}
	e.led.add(u)
	e.led.add(t)

	model, err := buildModelCold(e.rep, c)
	if err != nil {
		return err
	}
	if err := e.inprocLayers(model, c, false); err != nil {
		return err
	}
	e.rep.set("trace.overhead_s", t.Wall-u.Wall, "s", 1)
	e.rep.set("trace.coverage", info.Coverage, "ratio", 1)
	attribute(e.rep, u.Wall, uInfo.SetupSec)
	return e.serverProbe(c)
}

// --- via-warm -------------------------------------------------------------

func viaWorkload(e *env) error {
	p, sec, err := setupVia()
	if err != nil {
		return err
	}
	clips, err := genClips(e.workload, e.seed, e.clips)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, c := range clips {
		o, _, err := runInProcess(e.ctx, p, c, nil, e.work)
		if err != nil {
			return err
		}
		e.led.add(o)
	}
	loop := time.Since(start).Seconds()
	e.rep.set("clips_per_s", float64(len(e.led.done))/loop, "1/s", len(e.led.done))
	e.rep.set("peak_rss_mb", peakRSSMB(), "MiB", 1)
	return e.setupMedian(sec)
}

// viaLayers runs the first clip untraced and traced in-process, the direct
// layer calls, and the same clip once through the daemon, whose mask must
// match the in-process one.
func viaLayers(e *env) error {
	clips, err := genClips(e.workload, e.seed, 1)
	if err != nil {
		return err
	}
	model, err := buildModelCold(e.rep, clips[0])
	if err != nil {
		return err
	}
	if err := e.inprocLayers(model, clips[0], true); err != nil {
		return err
	}
	return e.serverProbe(clips[0])
}

// --- serve-m1-warm --------------------------------------------------------

func serveWorkload(e *env) error {
	d, sec, err := setupServe()
	if err != nil {
		return err
	}
	clips, err := genClips(e.workload, e.seed, e.clips)
	if err != nil {
		return errors.Join(err, d.stop())
	}
	_, loop, err := closedLoop(e, d, clips)
	if err = errors.Join(err, d.stop()); err != nil {
		return err
	}
	done := float64(len(e.led.done))
	e.rep.set("clips_per_s", done/loop, "1/s", len(e.led.done))
	e.rep.set("peak_rss_mb", peakRSSMB(), "MiB", 1)
	// The daemon's own names for the same numbers.
	e.rep.set("jobs_per_s", done/loop, "1/s", len(e.led.done))
	e.rep.set("job_latency_p50_s", median(e.led.walls), "s", len(e.led.walls))
	e.rep.set("job_latency_p90_s", percentile(e.led.walls, 0.9), "s", len(e.led.walls))
	return e.setupMedian(sec)
}

// serveLayers runs the first clip untraced and traced in-process, the
// direct layer calls, then a fixed block of jobs through the warm daemon
// for the server layer.
func serveLayers(e *env) error {
	clips, err := genClips(e.workload, e.seed, servePerLayerJobs)
	if err != nil {
		return err
	}
	model, err := buildModelCold(e.rep, clips[0])
	if err != nil {
		return err
	}
	if err := e.inprocLayers(model, clips[0], true); err != nil {
		return err
	}
	d, _, err := setupServe()
	if err != nil {
		return err
	}
	submits, _, err := closedLoop(e, d, clips)
	serverLayers(e.rep, d.rec, submits)
	return errors.Join(err, d.stop())
}

// closedLoop drives the daemon with `clients` clients, each submitting
// its next clip only after the previous one reached a terminal state,
// until every clip was sent. It returns the POST reply times and the
// loop's wall time.
func closedLoop(e *env, d *daemon, clips []clip) ([]float64, float64, error) {
	var (
		mu      sync.Mutex
		next    int
		submits []float64
		errs    []error
		wg      sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= len(clips) || len(errs) > 0 {
			return 0, false
		}
		next++
		return next - 1, true
	}
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := take()
				if !ok {
					return
				}
				o, sub, err := d.submit(clips[k])
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					submits = append(submits, sub)
				}
				mu.Unlock()
				if err != nil {
					return
				}
				e.led.add(o)
			}
		}()
	}
	wg.Wait()
	return submits, time.Since(start).Seconds(), errors.Join(errs...)
}

// --- shared pieces --------------------------------------------------------

// setupMedian reports setup_s over this run's set-up and the probes'.
func (e *env) setupMedian(own float64) error {
	probes, err := setupProbes(e, setupProbeCount)
	if err != nil {
		return err
	}
	all := append([]float64{own}, probes...)
	e.rep.set("setup_s", median(all), "s", len(all))
	return nil
}

// inprocLayers measures the in-process layers on clip c over model: with
// pair set, an untraced run of the clip first, for the trace overhead and
// coverage; then the traced clip and the direct litho/fft calls.
func (e *env) inprocLayers(model *optics.Model, c clip, pair bool) error {
	var u outcome
	if pair {
		p, err := c.config().Process()
		if err != nil {
			return err
		}
		if u, _, err = runInProcess(e.ctx, p, c, nil, e.work); err != nil {
			return err
		}
		e.led.add(u)
	}
	t, coverage, err := tracedClip(e.ctx, e.rep, model, c, e.work)
	if err != nil {
		return err
	}
	e.led.add(t)
	if pair {
		e.rep.set("trace.overhead_s", t.Wall-u.Wall, "s", 1)
		e.rep.set("trace.coverage", coverage, "ratio", 1)
		attribute(e.rep, t.Wall, 0) // the model was built before the clip
	}
	target, err := c.target()
	if err != nil {
		return err
	}
	return directLayers(e.rep, model, target, c.N/8)
}

// serverProbe sends clip c once through a fresh daemon for the server
// layer of a workload that does not otherwise use it.
func (e *env) serverProbe(c clip) error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	o, sub, err := d.submit(c)
	if err == nil {
		e.led.add(o)
		serverLayers(e.rep, d.rec, []float64{sub})
	}
	return errors.Join(err, d.stop())
}

// printRefs runs every distinct clip of the workload once and prints the
// quality table that refs.json holds.
func printRefs(e *env) error {
	clips, err := genClips(e.workload, 1, servePerLayerJobs)
	if err != nil {
		return err
	}
	seen := map[string]clip{}
	for _, c := range clips {
		seen[c.key()] = c
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var d *daemon
	var p *litho.Process
	switch e.workload {
	case "serve-m1-warm":
		if d, err = startDaemon(); err != nil {
			return err
		}
		defer d.stop()
	case "via-warm":
		if p, _, err = setupVia(); err != nil {
			return err
		}
	}
	out := map[string]quality{}
	for _, k := range keys {
		c := seen[k]
		var o outcome
		switch {
		case d != nil:
			o, _, err = d.submit(c)
		case p != nil:
			o, _, err = runInProcess(e.ctx, p, c, nil, e.work)
		default:
			o, _, err = runCLI(e.ctx, e.iltopt, e.work, c, "ref", false)
		}
		if err == nil && o.Err != "" {
			err = errors.New(o.Err)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		out[o.Clip.key()] = quality{L2: o.L2, PVB: o.PVB, EPE: o.EPE, Shots: o.Shots}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
