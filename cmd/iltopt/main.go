// Command iltopt runs mask optimization on a layout file (or a generated
// benchmark case) and reports the contest metrics:
//
//	iltopt -case 1 -recipe exact            # synthetic ICCAD case1
//	iltopt -layout my.glp -recipe fast      # your own layout
//	iltopt -via 3 -recipe via               # synthetic via pattern
//	iltopt -case 1 -recipe levelset         # baseline comparison
//
// With -out PREFIX it writes PREFIX_mask.png/.glp and PREFIX_wafer.png plus
// a PREFIX_manifest.json run manifest. Observability flags: -trace FILE
// streams per-iteration JSONL events, -progress prints a live console
// summary, -debug-addr serves net/http/pprof and expvar, and -manifest
// forces the manifest path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/baselines"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/imgio"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/mask"
	"repro/internal/metrics"
	"repro/internal/post"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iltopt:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiments.Harness()
	n := flag.Int("n", cfg.N, "simulation grid size (power of two)")
	field := flag.Float64("field", cfg.FieldNM, "physical field size in nm")
	kernels := flag.Int("kernels", cfg.Kernels, "number of SOCS kernels")
	iterdiv := flag.Int("iterdiv", 1, "divide recipe iteration budgets")
	workers := flag.Int("workers", 0, "per-kernel simulation fan-out (0 = GOMAXPROCS); results are identical for every value")
	fftEngine := flag.String("fft-engine", "", "FFT engine: batch (default, batched pruned transforms) | reference (dense oracle, agrees to rounding)")
	layoutPath := flag.String("layout", "", "layout file to optimize")
	caseIdx := flag.Int("case", 0, "synthetic paper case index (1-20) instead of -layout")
	viaIdx := flag.Int("via", 0, "synthetic via case index instead of -layout")
	recipe := flag.String("recipe", "exact", "fast | exact | via | pixel | levelset | attention")
	regionOpt := flag.Int("region", 1, "optimizing region option (1 or 2, 0 = unconstrained)")
	out := flag.String("out", "", "output prefix for mask/wafer artifacts")
	momentum := flag.Float64("momentum", 0, "heavy-ball momentum in [0, 1)")
	lineSearch := flag.Bool("linesearch", false, "backtracking line search per step (Zhao & Chu)")
	tvLambda := flag.Float64("tv", 0, "total-variation mask-complexity penalty weight")
	curvLambda := flag.Float64("curvature", 0, "curvature penalty weight")
	polygons := flag.Bool("polygons", false, "write the mask layout as traced polygons instead of fractured rectangles")
	trace := flag.String("trace", "", "write per-iteration JSONL trace events to this file")
	histSpans := flag.String("hist-spans", "litho.adjoint,litho.fft_forward",
		"comma-separated span phases that also record per-call latency histograms (empty disables)")
	progress := flag.Bool("progress", false, "print live per-stage/per-iteration progress to stderr")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	manifestPath := flag.String("manifest", "", "run-manifest path (default <out>_manifest.json when -out is set)")
	flag.Parse()

	cfg.N = *n
	cfg.FieldNM = *field
	cfg.Kernels = *kernels
	cfg.IterDiv = *iterdiv
	cfg.Workers = *workers
	cfg.Engine = *fftEngine
	engine, err := litho.ParseEngine(*fftEngine)
	if err != nil {
		return err
	}

	// The recorder exists whenever any observability output is requested;
	// instrumented code paths see a nil recorder otherwise and cost nothing.
	if *manifestPath == "" && *out != "" {
		*manifestPath = *out + "_manifest.json"
	}
	var rec *telemetry.Recorder
	if *trace != "" || *progress || *debugAddr != "" || *manifestPath != "" {
		var topts []telemetry.Option
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return err
			}
			topts = append(topts, telemetry.WithTrace(f))
		}
		if *progress {
			topts = append(topts, telemetry.WithConsole(os.Stderr))
		}
		if *histSpans != "" {
			topts = append(topts, telemetry.WithSpanHistograms(strings.Split(*histSpans, ",")...))
		}
		rec = telemetry.New(topts...)
		defer rec.Close()
	}
	if *debugAddr != "" {
		addr, stop, err := telemetry.ServeDebug(*debugAddr, rec)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars (pprof under /debug/pprof/)\n", addr)
	}
	cfg.Recorder = rec

	target, name, err := loadTarget(cfg, *layoutPath, *caseIdx, *viaIdx)
	if err != nil {
		return err
	}
	p, err := cfg.Process()
	if err != nil {
		return err
	}
	rec.Emit("run.start", telemetry.Fields{
		"tool": "iltopt", "name": name, "recipe": *recipe,
		"n": cfg.N, "field_nm": cfg.FieldNM, "kernels": cfg.Kernels,
		"iterdiv": cfg.IterDiv, "workers": cfg.Workers, "fft_engine": engine.String(),
	})

	var region *grid.Mat
	if *regionOpt != 0 {
		m1, m2 := cfg.RegionMargins()
		margin := m1
		opt := mask.Option1
		if *regionOpt == 2 {
			margin, opt = m2, mask.Option2
		}
		region, err = mask.Region(target, opt, margin)
		if err != nil {
			return err
		}
	}

	iters := 100 / *iterdiv
	if iters < 1 {
		iters = 1
	}
	var finalMask *grid.Mat
	var iltSec float64
	switch *recipe {
	case "fast", "exact", "via":
		var stages []core.Stage
		patience := 0
		switch *recipe {
		case "fast":
			stages = core.FastM1()
		case "exact":
			stages = core.ExactM1()
		case "via":
			stages = core.Via()
			patience = core.ViaPatience
		}
		opts := core.DefaultOptions(p)
		opts.Region = region
		opts.Patience = patience
		opts.Momentum = *momentum
		opts.LineSearch = *lineSearch
		opts.Recorder = rec
		if *tvLambda > 0 {
			opts.Penalties = append(opts.Penalties, core.TVPenalty{Lambda: *tvLambda})
		}
		if *curvLambda > 0 {
			opts.Penalties = append(opts.Penalties, core.CurvaturePenalty{Lambda: *curvLambda})
		}
		o, err := core.New(opts, target)
		if err != nil {
			return err
		}
		res, err := o.Run(context.Background(), core.ScaleStages(stages, *iterdiv))
		if err != nil {
			return err
		}
		sp := rec.StartSpan("post.clean")
		cleaned := post.Clean(res.Mask, target, post.DefaultOptions(cfg.PixelNM()))
		sp.End()
		finalMask, iltSec = cleaned.Mask, res.ILTSeconds
		fmt.Printf("%s: %d iterations, ILT %.2fs, post %.3fs (%d shapes removed, %d rectangularized)\n",
			*recipe, res.Iterations, res.ILTSeconds, cleaned.Seconds, cleaned.RemovedShapes, cleaned.Rectangularized)
	case "pixel":
		res, err := baselines.PixelILT(p, target, iters, region)
		if err != nil {
			return err
		}
		finalMask, iltSec = res.Mask, res.ILTSeconds
	case "attention":
		band := 2
		if b := int(24 / cfg.PixelNM()); b > band {
			band = b
		}
		res, err := baselines.AttentionILT(p, target, iters, band, region)
		if err != nil {
			return err
		}
		finalMask, iltSec = res.Mask, res.ILTSeconds
	case "levelset":
		res, err := baselines.LevelSetILT(baselines.LevelSetOptions{
			Process: p, Iters: iters, Region: region, Recorder: rec,
		}, target)
		if err != nil {
			return err
		}
		finalMask, iltSec = res.Mask, res.ILTSeconds
	default:
		return fmt.Errorf("unknown recipe %q", *recipe)
	}

	spacing, thr := cfg.EPEParams()
	sp := rec.StartSpan("metrics.evaluate")
	rep, err := metrics.Evaluate(p, finalMask, target, spacing, thr)
	sp.End()
	if err != nil {
		return err
	}
	rep = rep.Scale(cfg.PixelNM())
	fmt.Printf("%s  L2 %.0f nm²  PVB %.0f nm²  EPE %d  #shots %d  ILT %.2fs\n",
		name, rep.L2, rep.PVB, rep.EPE, rep.Shots, iltSec)
	rec.Emit("run.end", telemetry.Fields{
		"wall_sec": rec.Elapsed(), "ilt_sec": iltSec,
		"l2": rep.L2, "pvb": rep.PVB, "epe": rep.EPE, "shots": rep.Shots,
		"summary": fmt.Sprintf("%s L2 %.0f PVB %.0f EPE %d shots %d ILT %.2fs",
			name, rep.L2, rep.PVB, rep.EPE, rep.Shots, iltSec),
	})

	if *out != "" {
		if err := imgio.WritePNG(*out+"_mask.png", finalMask); err != nil {
			return err
		}
		wafer, err := p.Print(finalMask, p.Nominal())
		if err != nil {
			return err
		}
		if err := imgio.WritePNG(*out+"_wafer.png", wafer); err != nil {
			return err
		}
		var lay *layout.Layout
		if *polygons {
			lay = layout.FromMaskPolygons(finalMask, cfg.PixelNM())
		} else {
			lay = layout.FromMask(finalMask, cfg.PixelNM())
		}
		if err := lay.Save(*out + "_mask.glp"); err != nil {
			return err
		}
		fmt.Printf("artifacts: %s_mask.png %s_wafer.png %s_mask.glp\n", *out, *out, *out)
	}

	if *manifestPath != "" {
		man := telemetry.NewManifest("iltopt", map[string]any{
			"name": name, "recipe": *recipe, "n": cfg.N, "field_nm": cfg.FieldNM,
			"kernels": cfg.Kernels, "iterdiv": cfg.IterDiv, "workers": cfg.Workers,
			"fft_engine": engine.String(),
			"region":     *regionOpt, "momentum": *momentum, "linesearch": *lineSearch,
			"tv": *tvLambda, "curvature": *curvLambda,
		})
		man.SetMetric("l2_nm2", rep.L2)
		man.SetMetric("pvb_nm2", rep.PVB)
		man.SetMetric("epe", float64(rep.EPE))
		man.SetMetric("shots", float64(rep.Shots))
		man.SetMetric("ilt_sec", iltSec)
		man.Finish(rec)
		if err := man.Write(*manifestPath); err != nil {
			return err
		}
		fmt.Printf("manifest: %s\n", *manifestPath)
	}
	return nil
}

func loadTarget(cfg experiments.Config, path string, caseIdx, viaIdx int) (*grid.Mat, string, error) {
	switch {
	case path != "":
		l, err := layout.Load(path)
		if err != nil {
			return nil, "", err
		}
		m, err := l.Rasterize()
		if err != nil {
			return nil, "", err
		}
		return m, path, nil
	case caseIdx > 0:
		cs, err := bench.PaperCase(cfg.N, cfg.FieldNM, caseIdx)
		if err != nil {
			return nil, "", err
		}
		return cs.Target, cs.Name, nil
	case viaIdx > 0:
		cs, err := bench.ViaCase(cfg.N, cfg.FieldNM, viaIdx, 6+(viaIdx%5)*3)
		if err != nil {
			return nil, "", err
		}
		return cs.Target, cs.Name, nil
	default:
		return nil, "", fmt.Errorf("one of -layout, -case, -via is required")
	}
}
