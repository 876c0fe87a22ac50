// Command e2ebench is the repository's end-to-end benchmark: it measures
// what an ILT user waits for — a cold iltopt process, a job on the warm
// daemon, an in-process via clip — at equal mask quality, and in a
// separate traced run attributes the time to the optics, litho, fft, core,
// post, metrics and server layers. README.md lists the workloads, metrics
// and the layer → end-to-end predictions. Run it from the repository root
// through run.sh, which builds it and iltopt:
//
//	bash e2ebench/run.sh --workload serve-m1-warm --seed 3 --seconds 45 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full report with sample counts, the host block, seed and revision.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"

	"repro/internal/telemetry"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated untraced metrics (--trace 0), measured on every
// workload; BENCHMARK.json lists the same names with their bounds. The
// report line adds tat_p90_s and clips_per_s, whose run-to-run spread on
// the recording host was too wide to gate.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"tat_s", "s"}, {"peak_rss_mb", "MiB"},
	{"l2_rel", "ratio"}, {"pvb_rel", "ratio"}, {"epe_rel", "ratio"}, {"shots_rel", "ratio"},
}

// perLayer are the traced-run metrics (--trace 1), measured on every
// workload at that workload's sizes.
var perLayer = []metricDef{
	{"optics.build_model_s", "s"},
	{"litho.forward_s", "s"}, {"litho.gradient_s", "s"}, {"litho.forward_eq7_s", "s"},
	{"litho.forward_w1_s", "s"}, {"litho.forward_speedup", "ratio"},
	{"litho.fft_forward_s", "s"}, {"litho.socs_s", "s"}, {"litho.fft_inverse_s", "s"}, {"litho.adjoint_s", "s"},
	{"litho.forward_sims", "count"}, {"litho.eq7_sims", "count"}, {"litho.adjoint_calls", "count"},
	{"litho.kernel_ffts", "count"}, {"litho.plan_builds", "count"}, {"litho.plan_hits", "count"},
	{"fft.forward_full_s", "s"}, {"fft.forward_low_s", "s"},
	{"core.run_s", "s"}, {"core.iterations", "count"}, {"core.lowres_iter_s", "s"},
	{"core.highres_iter_s", "s"}, {"core.self_s", "s"},
	{"post.clean_s", "s"}, {"metrics.evaluate_s", "s"},
	{"server.submit_s", "s"}, {"server.queue_wait_s", "s"}, {"server.run_s", "s"},
	{"server.model_builds", "count"}, {"server.model_hits", "count"},
	{"server.jobs_rejected_full", "count"}, {"server.jobs_failed", "count"},
	{"runtime.alloc_mb", "MiB"}, {"runtime.gc_cpu_s", "s"},
	{"trace.overhead_s", "s"}, {"trace.coverage", "ratio"},
	{"share.optics", "ratio"}, {"share.litho", "ratio"}, {"share.core_self", "ratio"},
	{"share.post", "ratio"}, {"share.metrics", "ratio"}, {"share.other", "ratio"},
}

// report collects every measured number of a run by name.
type report struct {
	metrics map[string]stat
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = stat{Value: v, Unit: unit, N: n}
}

func (r *report) get(name string) float64 { return r.metrics[name].Value }

// env is one benchmark run.
type env struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  float64
	clips    int // clips a measured run attempts, from --seconds
	iltopt   string
	work     string // scratch directory of this run, removed at exit
	rev      string // source revision of the checkout
	led      *ledger
	rep      *report
}

func main() {
	workload := flag.String("workload", "", "cli-m1-cold | serve-m1-warm | via-warm")
	seed := flag.Int64("seed", 1, "workload seed: picks the cases and the recipe order")
	seconds := flag.Float64("seconds", 45, "measurement time of the run at the nominal clip rate")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	iltopt := flag.String("iltopt", "", "iltopt binary for the cli workload")
	work := flag.String("work", "", "directory for per-run scratch files")
	rev := flag.String("rev", "unknown", "source revision recorded with the result")
	probeSetup := flag.Bool("probe-setup", false, "internal: time one cold set-up of the workload in this process and print it")
	refs := flag.Bool("refs", false, "print the reference quality of every clip of the workload as JSON")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *iltopt, *work, *rev, *probeSetup, *refs); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, iltopt, work, rev string, probeSetup, refs bool) error {
	if _, err := genClips(workload, seed, 1); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", trace)
	}
	if probeSetup {
		sec, err := setupOnce(workload)
		if err != nil {
			return err
		}
		fmt.Println(strconv.FormatFloat(sec, 'g', -1, 64))
		return nil
	}
	if work == "" {
		return fmt.Errorf("-work is required")
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	e := &env{
		ctx: context.Background(), workload: workload, seed: seed,
		seconds: seconds, clips: clipCount(workload, seconds), iltopt: iltopt, work: dir, rev: rev,
		led: newLedger(), rep: &report{metrics: map[string]stat{}},
	}
	if refs {
		return printRefs(e)
	}
	switch {
	case workload == "cli-m1-cold" && trace == 0:
		err = cliWorkload(e)
	case workload == "cli-m1-cold":
		err = cliLayers(e)
	case workload == "serve-m1-warm" && trace == 0:
		err = serveWorkload(e)
	case workload == "serve-m1-warm":
		err = serveLayers(e)
	case trace == 0:
		err = viaWorkload(e)
	default:
		err = viaLayers(e)
	}
	if err != nil {
		return err
	}
	if trace == 0 {
		if err := e.qualityAndLatency(); err != nil {
			return err
		}
	}
	return e.print(trace)
}

// qualityAndLatency derives the per-clip end-to-end metrics from the
// ledger. Quality is each metric summed over the run's passing clips and
// divided by the same sum of the committed reference values (refs.json),
// so it reads 1 on the reference tree whatever cases the seed drew.
func (e *env) qualityAndLatency() error {
	l := e.led
	e.rep.set("tat_s", median(l.walls), "s", len(l.walls))
	e.rep.set("tat_p90_s", percentile(l.walls, 0.9), "s", len(l.walls))
	references, err := loadRefs()
	if err != nil {
		return fmt.Errorf("refs.json: %w", err)
	}
	var got, want [4]float64
	for _, o := range l.done {
		ref, ok := references[o.Clip.key()]
		if !ok {
			return fmt.Errorf("no reference quality for clip %s (regenerate refs.json)", o.Clip.key())
		}
		got[0], got[1], got[2], got[3] = got[0]+o.L2, got[1]+o.PVB, got[2]+float64(o.EPE), got[3]+float64(o.Shots)
		want[0], want[1], want[2], want[3] = want[0]+ref.L2, want[1]+ref.PVB, want[2]+float64(ref.EPE), want[3]+float64(ref.Shots)
	}
	n := len(l.done)
	for i, name := range []string{"l2", "pvb", "epe", "shots"} {
		e.rep.set(name+"_rel", got[i]/want[i], "ratio", n)
	}
	if n > 0 {
		e.rep.set("l2_nm2", got[0]/float64(n), "nm2", n)
		e.rep.set("pvb_nm2", got[1]/float64(n), "nm2", n)
		e.rep.set("epe", got[2]/float64(n), "count", n)
		e.rep.set("shots", got[3]/float64(n), "count", n)
	}
	return nil
}

// print writes the full report line, then the result object.
func (e *env) print(trace int) error {
	l := e.led
	e.rep.set("failed_frac", float64(l.failed)/math.Max(1, float64(l.attempted)), "ratio", l.attempted)
	names := make([]string, 0, len(e.rep.metrics))
	for k := range e.rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	all := make(map[string]stat, len(names))
	for _, k := range names {
		all[k] = finite(e.rep.metrics[k])
	}
	full := map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.seconds, "trace": trace,
		"host": telemetry.Host(), "git_revision": e.rev,
		"attempted": l.attempted, "failed": l.failed, "incorrect": l.incorrect,
		"failures": l.reasons, "metrics": all,
	}
	line, err := json.Marshal(map[string]any{"e2ebench_report": full})
	if err != nil {
		return err
	}
	fmt.Println(string(line))

	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: l.incorrect == 0, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		s, ok := e.rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: finite(s).Value, Unit: d.unit}
	}
	line, err = json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// finite maps what JSON cannot carry: a latency percentile that landed on
// a failed clip (+Inf) reads as the largest float, an empty sample as 0.
func finite(s stat) stat {
	switch {
	case math.IsInf(s.Value, 1):
		s.Value = math.MaxFloat64
	case math.IsNaN(s.Value):
		s.Value = 0
	}
	return s
}

// setupProbes times extra cold set-ups of the workload, each in a fresh
// process of this binary, so setup_s is a median over several.
func setupProbes(e *env, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.CommandContext(e.ctx, exe, "-probe-setup", "-workload", e.workload)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
