// Command tracestat analyzes and validates the JSONL traces the
// instrumented pipeline writes (iltopt -trace, iltserver SSE streams):
// per-phase wall-time tables with a critical-path summary, per-iteration
// latency quantiles and loss/step/retry series, and the latency-histogram
// summaries the recorder flushes at close.
//
//	tracestat run.jsonl                                  # analytics report
//	tracestat -compare old.jsonl new.jsonl -threshold 10%
//	tracestat -check -manifest run_manifest.json run.jsonl
//
// Compare mode gates on the per-call mean of each phase shared by both
// traces and exits 2 when any phase slowed by at least the threshold, so a
// CI lane can diff a PR's trace against a baseline.
//
// Check mode re-validates the event schema and the tile-sweep order
// (telemetry.ValidateTrace), bounds the summed phase seconds against the
// run.end wall time (-min-coverage 0 disables the bound), and summarizes
// the -manifest run manifest; either input may be omitted.
//
// Exit codes: 0 clean, 1 usage, read or check failure, 2 regression
// detected.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/telemetry"
	"repro/internal/tracestat"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
	}
	os.Exit(code)
}

func run(argv []string) (int, error) {
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	compare := fs.Bool("compare", false, "A/B mode: compare two traces (old new)")
	threshold := fs.String("threshold", "10%", "per-phase mean slowdown that counts as a regression (\"10%\" or \"0.1\")")
	check := fs.Bool("check", false, "validate mode: check a trace's schema and phase coverage, and/or a run manifest")
	manifest := fs.String("manifest", "", "with -check: run manifest to validate")
	minCov := fs.Float64("min-coverage", 0.8, "with -check: minimum phase-sec / wall-sec ratio (0 disables the bound)")
	maxCov := fs.Float64("max-coverage", 1.25, "with -check: maximum phase-sec / wall-sec ratio (concurrent phases can exceed 1)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracestat [flags] trace.jsonl")
		fmt.Fprintln(os.Stderr, "       tracestat -compare [flags] old.jsonl new.jsonl")
		fmt.Fprintln(os.Stderr, "       tracestat -check [-manifest m.json] [-min-coverage 0.8] [-max-coverage 1.25] [trace.jsonl]")
		fs.PrintDefaults()
	}

	// The standard flag package stops at the first positional argument;
	// re-parse after each one so `tracestat -compare old new -threshold 10%`
	// works with flags and files in any order.
	var files []string
	args := argv
	for {
		if err := fs.Parse(args); err != nil {
			return 1, nil // fs already printed the message
		}
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		files = append(files, args[0])
		args = args[1:]
	}

	if *check {
		if *compare || len(files) > 1 {
			fs.Usage()
			return 1, fmt.Errorf("-check takes at most one trace and no -compare")
		}
		var trace string
		if len(files) == 1 {
			trace = files[0]
		}
		if err := runCheck(trace, *manifest, *minCov, *maxCov); err != nil {
			return 1, err
		}
		return 0, nil
	}

	if *compare {
		if len(files) != 2 {
			fs.Usage()
			return 1, fmt.Errorf("-compare needs exactly two traces, got %d", len(files))
		}
		th, err := tracestat.ParseThreshold(*threshold)
		if err != nil {
			return 1, err
		}
		oldT, err := tracestat.ReadFile(files[0])
		if err != nil {
			return 1, err
		}
		newT, err := tracestat.ReadFile(files[1])
		if err != nil {
			return 1, err
		}
		res := tracestat.Compare(oldT, newT, th)
		res.Render(os.Stdout, files[0], files[1])
		if res.Regressions > 0 {
			return 2, fmt.Errorf("%d phase(s) regressed by >= %s", res.Regressions, *threshold)
		}
		return 0, nil
	}

	if len(files) != 1 {
		fs.Usage()
		return 1, fmt.Errorf("need exactly one trace, got %d", len(files))
	}
	t, err := tracestat.ReadFile(files[0])
	if err != nil {
		return 1, err
	}
	tracestat.Render(os.Stdout, t)
	return 0, nil
}

// runCheck validates a trace and/or a run manifest, printing one summary
// line for each and the phase coverage when the bound applies.
func runCheck(trace, manifest string, minCov, maxCov float64) error {
	if trace == "" && manifest == "" {
		return fmt.Errorf("nothing to check: pass a trace and/or -manifest")
	}

	if trace != "" {
		f, err := os.Open(trace)
		if err != nil {
			return err
		}
		stats, err := telemetry.ValidateTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", trace, err)
		}
		fmt.Printf("%s: %d events, %d iterations over %d stages, %d tiles, %d phases\n",
			trace, stats.Events, stats.Iters, len(stats.StagesOpened), stats.Tiles, stats.Phases)
		if stats.WallSec > 0 && minCov > 0 {
			cov := stats.Coverage()
			fmt.Printf("phase coverage: %.3fs of %.3fs wall = %.1f%%\n",
				stats.PhaseSec, stats.WallSec, 100*cov)
			if cov < minCov || cov > maxCov {
				return fmt.Errorf("%s: phase coverage %.2f outside [%.2f, %.2f]",
					trace, cov, minCov, maxCov)
			}
		}
	}

	if manifest != "" {
		man, err := telemetry.ReadManifest(manifest)
		if err != nil {
			return fmt.Errorf("%s: %w", manifest, err)
		}
		fmt.Printf("%s: tool %s, rev %s, host %s/%s ×%d, %.3fs, %d phases\n",
			manifest, man.Tool, shortRev(man.GitRevision), man.Host.OS, man.Host.Arch,
			man.Host.NumCPU, man.DurationSec, len(man.Phases))
	}
	return nil
}

func shortRev(rev string) string {
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}
