package lint

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// A want is one expected diagnostic, parsed from a fixture comment:
//
//	expr // want "regex"
//	// want+1 "regex"   (diagnostic expected on the next line)
//
// Several quoted regexes on one line expect several diagnostics there.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile(`// want(\+\d+)? (.+)$`)
var wantArgRe = regexp.MustCompile(`"([^"]*)"`)

// parseWants scans every .go file of a fixture directory for want comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	nested, err := filepath.Glob(filepath.Join(dir, "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, nested...)
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	var wants []*want
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			target := line
			if m[1] != "" {
				fmt.Sscanf(m[1], "+%d", &target)
				target += line
			}
			args := wantArgRe.FindAllStringSubmatch(m[2], -1)
			if len(args) == 0 {
				t.Errorf("%s:%d: want comment without a quoted regex", path, line)
			}
			for _, a := range args {
				re, err := regexp.Compile(a[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, line, a[1], err)
				}
				wants = append(wants, &want{file: filepath.Base(path), line: target, re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// testFixture runs one or more analyzers over a fixture tree and checks
// the diagnostics against the // want annotations: every diagnostic must
// match exactly one unconsumed want and every want must be consumed.
// Fixture files are matched by base name, which covers the multi-package
// fixtures' subdirectories.
func testFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	testFixturePatterns(t, []*Analyzer{a}, dir, ".")
}

func testFixturePatterns(t *testing.T, analyzers []*Analyzer, dir string, patterns ...string) {
	t.Helper()
	res, err := Run(Options{Dir: dir, Patterns: patterns, Analyzers: analyzers})
	if err != nil {
		t.Fatalf("lint run over %s: %v", dir, err)
	}
	wants := parseWants(t, dir)
	for _, d := range res.Diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q was not reported", w.file, w.line, w.re)
		}
	}
}

func TestFloatCmpFixture(t *testing.T)     { testFixture(t, FloatCmp, "testdata/src/floatcmp") }
func TestMapOrderFixture(t *testing.T)     { testFixture(t, MapOrder, "testdata/src/maporder") }
func TestScratchAliasFixture(t *testing.T) { testFixture(t, ScratchAlias, "testdata/src/scratchalias") }
func TestHotAllocFixture(t *testing.T)     { testFixture(t, HotAlloc, "testdata/src/hotalloc") }
func TestErrCheckMainFixture(t *testing.T) { testFixture(t, ErrCheck, "testdata/src/errcheck") }
func TestErrCheckLibFixture(t *testing.T)  { testFixture(t, ErrCheck, "testdata/src/errchecklib") }
func TestGridResFixture(t *testing.T)      { testFixture(t, GridRes, "testdata/src/gridres") }
func TestLeasePathFixture(t *testing.T)    { testFixture(t, LeasePath, "testdata/src/leasepath") }
func TestAtomicFieldFixture(t *testing.T)  { testFixture(t, AtomicField, "testdata/src/atomicfield") }

// TestHotDiagFixture drives the three compiler-fact ratchets over a
// fixture with its own lint.hot manifest: surviving bounds checks, heap
// escapes, and non-inlined calls fire only inside declared hot regions,
// and the panic-path/ignore escapes stay silent.
func TestHotDiagFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{BCE, Escape, Inline}, "testdata/src/hotdiag", ".")
}

// TestCtxFlowFixture checks the server-reachability scoping: the same
// context-severing shapes fire in the server package and its callees but
// stay silent in the unreached batch package.
func TestCtxFlowFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{CtxFlow}, "testdata/src/ctxflow", "./...")
}

func TestTimerLeakFixture(t *testing.T) { testFixture(t, TimerLeak, "testdata/src/timerleak") }

// TestLockOrderFixture drives the lock-order graph end to end: the seeded
// A/B inversion cycle, a self-deadlock through a lock helper, the
// held-across-blocking findings scoped to the server subpackage, and the
// sync.Cond locker exemption.
func TestLockOrderFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{LockOrder}, "testdata/src/lockorder", "./...")
}

// TestLockOrderCycleMessage pins the acceptance shape of a cycle report:
// the full cycle with one relativized witness position per edge —
// "A -> B at file:line, B -> A at file:line".
func TestLockOrderCycleMessage(t *testing.T) {
	res, err := Run(Options{Dir: "testdata/src/lockorder", Patterns: []string{"./..."}, Analyzers: []*Analyzer{LockOrder}})
	if err != nil {
		t.Fatal(err)
	}
	cycleRe := regexp.MustCompile(
		`lock-order inversion \(potential deadlock\): ` +
			`lockorder\.\(A\)\.mu -> lockorder\.\(B\)\.mu at lockorder\.go:\d+, ` +
			`lockorder\.\(B\)\.mu -> lockorder\.\(A\)\.mu at lockorder\.go:\d+`)
	found := false
	for _, d := range res.Diags {
		if cycleRe.MatchString(d.Message) {
			found = true
		}
		if strings.Contains(d.Message, string(filepath.Separator)+"root"+string(filepath.Separator)) {
			t.Errorf("cycle message leaks an absolute path: %s", d.Message)
		}
	}
	if !found {
		t.Errorf("no diagnostic matched the full-cycle format %q; got:\n%v", cycleRe, res.Diags)
	}
}

// TestChanProtocolFixture covers the close discipline (double-close,
// send-after-close, parameter-close ownership) everywhere and the
// unbuffered-send escapes on the server subpackage.
func TestChanProtocolFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{ChanProtocol}, "testdata/src/chanprotocol", "./...")
}

// TestWGMisuseFixture covers Add-in-goroutine (direct and through a
// callee summary), Add racing an async Wait, and sync state copied into
// callees that lock it.
func TestWGMisuseFixture(t *testing.T) { testFixture(t, WGMisuse, "testdata/src/wgmisuse") }

// TestGoroLifeFixture covers unbounded spawns (closure, named target, and
// through a wrapper) on the serving surface and their silence off it.
func TestGoroLifeFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{GoroLife}, "testdata/src/gorolife", "./...")
}

// TestInterprocFixture loads a two-package fixture in one run: the
// findings in package b exist only because summaries computed for package
// a (release chains, result resolution deltas, same-res constraints, and
// the lock and lease facts of a mutually recursive pair) survive the
// cross-package call-graph fixpoint.
func TestInterprocFixture(t *testing.T) {
	testFixturePatterns(t, []*Analyzer{GridRes, LeasePath, LockOrder}, "testdata/src/interproc", "./...")
}

// TestWorkersDeterminism pins the parallel pipeline's contract: the -json
// byte stream is identical at any worker count.
func TestWorkersDeterminism(t *testing.T) {
	runAt := func(workers int) []byte {
		res, err := Run(Options{Dir: "testdata/src/driver", Patterns: []string{"./..."}, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res.Diags); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runAt(1)
	for _, w := range []int{2, 8, 0} {
		if got := runAt(w); !bytes.Equal(serial, got) {
			t.Errorf("workers=%d output differs from serial:\n--- serial\n%s--- workers=%d\n%s", w, serial, w, got)
		}
	}
}

// TestDriverJSONGolden runs the full seventeen-analyzer suite over the
// driver fixture — one violation per rule — and pins the -json byte
// stream: the schema, the (file, line, col, rule) ordering, and
// run-to-run determinism.
func TestDriverJSONGolden(t *testing.T) {
	runJSON := func() []byte {
		res, err := Run(Options{Dir: "testdata/src/driver", Patterns: []string{"./..."}})
		if err != nil {
			t.Fatalf("lint run: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, res.Diags); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := runJSON(), runJSON()
	if !bytes.Equal(first, second) {
		t.Fatalf("two runs over the same tree differ:\n--- first\n%s--- second\n%s", first, second)
	}

	rules := map[string]bool{}
	for _, a := range All {
		rules[a.Name] = true
	}
	for name := range rules {
		if !strings.Contains(string(first), `"rule": "`+name+`"`) {
			t.Errorf("driver fixture did not exercise rule %s:\n%s", name, first)
		}
	}

	golden := filepath.Join("testdata", "driver.golden.json")
	if *update {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/lint -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(first, wantBytes) {
		t.Errorf("JSON output diverged from %s (re-run with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, first, wantBytes)
	}
}

// TestHotManifestRot seeds a manifest whose last entry names a function
// the driver fixture does not declare and pins the runner-level
// diagnostic: the rule, the manifest line it lands on, and the decayed
// name in the message. The live entry and the skipped foreign-path entry
// stay silent.
func TestHotManifestRot(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "lint.hot")
	src := "# seeded rot below\n" +
		"repro/internal/lint/testdata/src/driver hotIndex\n" +
		"repro/internal/unloaded/pkg anything\n" +
		"repro/internal/lint/testdata/src/driver vanishedKernel\n"
	if err := os.WriteFile(manifest, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Dir: "testdata/src/driver", Patterns: []string{"./..."}, HotManifest: manifest})
	if err != nil {
		t.Fatal(err)
	}
	var rot []Diagnostic
	for _, d := range res.Diags {
		if d.Rule == "hotmanifest" {
			rot = append(rot, d)
		}
	}
	if len(rot) != 1 {
		t.Fatalf("want exactly one hotmanifest diagnostic, got %d: %+v", len(rot), rot)
	}
	if !strings.Contains(rot[0].Message, `"vanishedKernel"`) {
		t.Errorf("message does not name the rotten entry: %s", rot[0].Message)
	}
	if rot[0].Pos.Line != 4 {
		t.Errorf("rot reported at manifest line %d, want 4", rot[0].Pos.Line)
	}
}

// TestBaselineRatchet records a baseline over the driver fixture and
// verifies the filter: a full baseline absorbs everything, a truncated one
// lets exactly the dropped finding through.
func TestBaselineRatchet(t *testing.T) {
	res, err := Run(Options{Dir: "testdata/src/driver", Patterns: []string{"./..."}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) < len(All) {
		t.Fatalf("driver fixture should fire every rule, got %d findings", len(res.Diags))
	}

	b := NewBaseline(res.Diags)
	fresh, absorbed := b.Filter(res.Diags)
	if len(fresh) != 0 || absorbed != len(res.Diags) {
		t.Errorf("full baseline: fresh=%d absorbed=%d, want 0/%d", len(fresh), absorbed, len(res.Diags))
	}

	trimmed := &Baseline{Entries: b.Entries[:len(b.Entries)-1]}
	fresh, absorbed = trimmed.Filter(res.Diags)
	if len(fresh) != 1 || absorbed != len(res.Diags)-1 {
		t.Errorf("trimmed baseline: fresh=%d absorbed=%d, want 1/%d", len(fresh), absorbed, len(res.Diags)-1)
	}

	// Round-trip through the file form.
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaselineFile(path, res.Diags); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, absorbed := loaded.Filter(res.Diags); len(fresh) != 0 || absorbed != len(res.Diags) {
		t.Errorf("round-tripped baseline: fresh=%d absorbed=%d, want 0/%d", len(fresh), absorbed, len(res.Diags))
	}
}

// writeFixModule creates a throwaway module with one fixable floatcmp
// finding and returns its directory, file path, and original source.
func writeFixModule(t *testing.T) (dir, path, src string) {
	t.Helper()
	dir = t.TempDir()
	src = `package main

import "math"

func main() {
	a, b := math.Sqrt(2), math.Sqrt(3)
	if a == b {
		println("equal")
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixtest\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, path, src
}

// TestFormatFixDiffs verifies -diff's engine: the preview shows the fix as
// a unified diff and leaves the file on disk untouched.
func TestFormatFixDiffs(t *testing.T) {
	dir, path, src := writeFixModule(t)
	res, err := Run(Options{Dir: dir, Patterns: []string{"."}, Analyzers: []*Analyzer{FloatCmp}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := FormatFixDiffs(res.Fset, res.Diags)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"--- ", "+++ ", "@@ ", "-\tif a == b {", "+\tif math.Float64bits(a) == math.Float64bits(b) {"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != src {
		t.Errorf("-diff modified the file:\n%s", onDisk)
	}
}

// TestFixIdempotent pins the -fix contract: applying fixes twice is a
// no-op — the second pass finds nothing fixable and changes no bytes.
func TestFixIdempotent(t *testing.T) {
	dir, path, _ := writeFixModule(t)
	opts := Options{Dir: dir, Patterns: []string{"."}, Analyzers: []*Analyzer{FloatCmp}}

	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyFixes(res.Fset, res.Diags); err != nil {
		t.Fatal(err)
	}
	afterFirst, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	res, err = Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Fixable(); n != 0 {
		t.Errorf("second pass still sees %d fixable finding(s)", n)
	}
	counts, err := ApplyFixes(res.Fset, res.Diags)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 0 {
		t.Errorf("second ApplyFixes applied %v, want nothing", counts)
	}
	afterSecond, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(afterFirst, afterSecond) {
		t.Errorf("second -fix changed bytes:\n--- first\n%s--- second\n%s", afterFirst, afterSecond)
	}
}

// TestApplyFixesFloatCmp runs the floatcmp fix end to end against a
// throwaway module: lint, apply, re-lint — the finding must be gone and
// the rewrite must be gofmt-clean.
func TestApplyFixesFloatCmp(t *testing.T) {
	dir := t.TempDir()
	src := `package main

import "math"

func main() {
	a, b := math.Sqrt(2), math.Sqrt(3)
	if a == b {
		println("equal")
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixtest\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "main.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	opts := Options{Dir: dir, Patterns: []string{"."}, Analyzers: []*Analyzer{FloatCmp}}
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 1 || res.Diags[0].Fix == nil {
		t.Fatalf("want 1 fixable diagnostic, got %v", res.Diags)
	}
	fixed, err := ApplyFixes(res.Fset, res.Diags)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range fixed {
		total += n
	}
	if total != 1 {
		t.Errorf("fixed = %v, want exactly 1 applied fix", fixed)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "math.Float64bits(a) == math.Float64bits(b)") {
		t.Errorf("fix not applied:\n%s", out)
	}
	res, err = Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diags) != 0 {
		t.Errorf("diagnostics survive the fix: %v", res.Diags)
	}
}
