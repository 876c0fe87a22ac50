package repro

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the four command-line tools and drives the full
// user workflow: generate a benchmark suite, optimize a case, forward-
// simulate the result, and regenerate an experiment table.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/benchgen", "./cmd/iltopt", "./cmd/lithosim", "./cmd/mltables")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	work := t.TempDir()
	small := []string{"-n", "128", "-field", "512", "-kernels", "8"}

	// 1. Generate layouts.
	out := run("benchgen", "-n", "128", "-field", "512", "-suite", "via",
		"-count", "2", "-out", work, "-png=false")
	if !strings.Contains(out, "via1") {
		t.Fatalf("benchgen output missing case name:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(work, "via1.glp")); err != nil {
		t.Fatal("benchgen did not write via1.glp")
	}

	// 2. Optimize the generated layout.
	prefix := filepath.Join(work, "opt")
	out = run("iltopt", append(small, "-layout", filepath.Join(work, "via1.glp"),
		"-recipe", "via", "-iterdiv", "4", "-out", prefix)...)
	if !strings.Contains(out, "L2") {
		t.Fatalf("iltopt output missing metrics:\n%s", out)
	}
	for _, suffix := range []string{"_mask.png", "_wafer.png", "_mask.glp"} {
		if _, err := os.Stat(prefix + suffix); err != nil {
			t.Fatalf("iltopt artifact %s missing", suffix)
		}
	}

	// 3. Forward-simulate the optimized mask layout with Eq. (7).
	out = run("lithosim", append(small, "-layout", prefix+"_mask.glp",
		"-eq", "7", "-scale", "4")...)
	if !strings.Contains(out, "Eq.(7)") || !strings.Contains(out, "printed area") {
		t.Fatalf("lithosim output unexpected:\n%s", out)
	}

	// 4. Regenerate one experiment table.
	out = run("mltables", append(small, "-iterdiv", "20", "-baselines=false",
		"-exp", "fig5")...)
	if !strings.Contains(out, "Fig. 5") {
		t.Fatalf("mltables output missing table:\n%s", out)
	}

	// 5. Unknown experiment name fails cleanly.
	cmd := exec.Command(filepath.Join(bin, "mltables"), "-exp", "nosuch")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("mltables accepted unknown experiment:\n%s", out)
	}
}

// TestTracestatCLI drives the trace-analytics tool the way the trace-stat
// lane does: report a real optimizer trace, then gate an A/B pair with a
// known injected slowdown — which must exit with the dedicated code 2 —
// and validate the trace with -check, which must reject a broken seq.
func TestTracestatCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration builds binaries; skipped in -short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/iltopt", "./cmd/tracestat")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	work := t.TempDir()
	trace := filepath.Join(work, "run.jsonl")

	// A short deterministic run produces the trace under analysis.
	opt := exec.Command(filepath.Join(bin, "iltopt"), "-case", "1", "-n", "128",
		"-field", "512", "-kernels", "8", "-iterdiv", "20", "-workers", "1",
		"-recipe", "fast", "-trace", trace)
	if out, err := opt.CombinedOutput(); err != nil {
		t.Fatalf("iltopt: %v\n%s", err, out)
	}

	// Report mode: the analytics sections must cover phases, iterations,
	// and the histogram summaries the recorder flushes at close.
	rep := exec.Command(filepath.Join(bin, "tracestat"), trace)
	out, err := rep.CombinedOutput()
	if err != nil {
		t.Fatalf("tracestat: %v\n%s", err, out)
	}
	for _, want := range []string{
		"trace report:", "iteration latency", "phases by wall time",
		"phase coverage:", "litho.socs", "latency histograms", "core.iter",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Compare mode on the committed fixtures (old vs new with an injected
	// +20% per-call slowdown in litho.socs) must exit exactly 2.
	cmp := exec.Command(filepath.Join(bin, "tracestat"), "-compare",
		"internal/tracestat/testdata/compare_old.jsonl",
		"internal/tracestat/testdata/compare_new.jsonl", "-threshold", "10%")
	out, err = cmp.CombinedOutput()
	if err == nil {
		t.Fatalf("compare with injected slowdown passed:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("compare exit = %v, want exit code 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "REGRESSED") {
		t.Errorf("compare output missing REGRESSED verdict:\n%s", out)
	}

	// The same pair under a slack threshold passes with exit 0.
	ok := exec.Command(filepath.Join(bin, "tracestat"), "-compare",
		"internal/tracestat/testdata/compare_old.jsonl",
		"internal/tracestat/testdata/compare_new.jsonl", "-threshold", "25%")
	if out, err := ok.CombinedOutput(); err != nil {
		t.Fatalf("compare at 25%%: %v\n%s", err, out)
	}

	// Check mode: the optimizer's own trace validates, with the phase
	// coverage inside the default bound.
	chk := exec.Command(filepath.Join(bin, "tracestat"), "-check", trace)
	out, err = chk.CombinedOutput()
	if err != nil {
		t.Fatalf("tracestat -check: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "phase coverage:") {
		t.Errorf("check output missing the coverage line:\n%s", out)
	}

	// The same trace with one line's seq altered breaks the contiguous
	// sequence and must fail with exit 1.
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(raw), "\n")
	if len(lines) < 3 || !strings.Contains(lines[1], `"seq":2`) {
		t.Fatalf("trace line 2 carries no \"seq\":2: %q", lines[1])
	}
	lines[1] = strings.Replace(lines[1], `"seq":2`, `"seq":7`, 1)
	bad := filepath.Join(work, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(bin, "tracestat"), "-check", bad).CombinedOutput()
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("check of an altered seq: exit = %v, want exit code 1\n%s", err, out)
	}
}
