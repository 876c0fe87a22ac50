package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/litho"
	"repro/internal/optics"
	"repro/internal/telemetry"
)

// FFT-engine sweep: the repo-level BENCH_FFT.json artifact tracks the
// speedup of the batched engine over the dense reference across PRs. For
// each grid size the sweep times, per FFT engine at a fixed worker count of
// 1, one exact forward simulation (Eq. 3) and one Sim.Gradient of that
// forward's field (amplitudes recomputed, as the optimizer does above its
// keep-amplitudes limit) — the single-threaded columns are what the pruning
// claims are about, and they are comparable across hosts with different
// core counts. Speedups are relative to the reference engine of the same
// run. Older reports also carry band_* columns for engines since removed;
// the loader ignores them, and reports without the gradient columns gate
// the forward pair only.

// FFTPoint is one grid size's measurement (seconds per forward simulation
// and per gradient).
type FFTPoint struct {
	M            int     `json:"m"`
	ReferenceSec float64 `json:"reference_sec"` // dense forward + dense inverses
	BatchedSec   float64 `json:"batched_sec"`   // packed forward + fused batched inverse
	BatchedGain  float64 `json:"batched_speedup"`
	// Gradient: amplitude recompute plus the per-kernel adjoint — dense
	// forward transforms for the reference, band-output batch for batched.
	ReferenceGradSec float64 `json:"reference_grad_sec,omitempty"`
	BatchedGradSec   float64 `json:"batched_grad_sec,omitempty"`
	BatchedGradGain  float64 `json:"batched_grad_speedup,omitempty"`
}

// FFTSweep is the serializable sweep report.
type FFTSweep struct {
	FieldNM float64 `json:"field_nm"`
	Kernels int     `json:"kernels"`
	P       int     `json:"p"` // kernel support: the band is P×P
	Reps    int     `json:"reps"`
	Workers int     `json:"workers"`
	// Host context, in the run-manifest host schema (self-describing
	// trajectory file, like BENCH_WORKERS.json).
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Host       telemetry.HostInfo `json:"host"`
	Points     []FFTPoint         `json:"points"`
}

// RunFFTSweep measures the forward-simulation and gradient cost of each
// FFT engine at the given grid sizes (reps timed runs after one warm-up
// each).
func RunFFTSweep(sizes []int, fieldNM float64, kernels, reps int) (*FFTSweep, error) {
	if reps < 1 {
		reps = 1
	}
	if len(sizes) == 0 {
		sizes = []int{256, 512, 1024}
	}
	oc := optics.Default()
	oc.FieldNM = fieldNM
	oc.NumKernels = kernels
	model, err := optics.BuildModel(oc)
	if err != nil {
		return nil, err
	}
	sweep := &FFTSweep{
		FieldNM: fieldNM, Kernels: len(model.Nominal.Kernels), P: model.Nominal.P,
		Reps: reps, Workers: 1,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Host: telemetry.Host(),
	}
	engines := []litho.FFTEngine{litho.EngineReference, litho.EngineBatch}
	for _, m := range sizes {
		cs, err := M1Case(m, fieldNM, 1, PaperM1Areas[0], m1Params())
		if err != nil {
			return nil, err
		}
		mask := cs.Target
		var fwd, grad [2]float64
		var sims [2]*litho.Sim
		var fields [2]*litho.Field
		// Both engines' forwards are timed before any gradient, so the
		// forward columns are measured as they were before the gradient
		// columns existed.
		for i, e := range engines {
			sim := litho.NewSim(model)
			sim.Workers = 1
			sim.Engine = e
			// Warm-up builds the plan, band tables and scratch pools.
			f, err := sim.Forward(mask, model.Nominal, 1, false)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if f, err = sim.Forward(mask, model.Nominal, 1, false); err != nil {
					return nil, err
				}
			}
			fwd[i] = time.Since(start).Seconds() / float64(reps)
			sims[i], fields[i] = sim, f
		}
		for i, sim := range sims {
			// The target stands in for dL/dI: the adjoint's cost does not
			// depend on the values.
			if _, err := sim.Gradient(fields[i], mask); err != nil {
				return nil, err
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				if _, err := sim.Gradient(fields[i], mask); err != nil {
					return nil, err
				}
			}
			grad[i] = time.Since(start).Seconds() / float64(reps)
		}
		pt := FFTPoint{M: m, ReferenceSec: fwd[0], BatchedSec: fwd[1], ReferenceGradSec: grad[0], BatchedGradSec: grad[1]}
		if pt.BatchedSec > 0 {
			pt.BatchedGain = pt.ReferenceSec / pt.BatchedSec
		}
		if pt.BatchedGradSec > 0 {
			pt.BatchedGradGain = pt.ReferenceGradSec / pt.BatchedGradSec
		}
		sweep.Points = append(sweep.Points, pt)
	}
	return sweep, nil
}

// WriteJSON writes the sweep report (indented, trailing newline) to path.
func (s *FFTSweep) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteBenchstat writes the sweep in Go benchmark format so two runs can be
// diffed with benchstat (Makefile target bench-compare). One line per
// (operation, size, engine); gradient lines only where the point has them.
func (s *FFTSweep) WriteBenchstat(path string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "goos: %s\ngoarch: %s\ncpu: %s\n", runtime.GOOS, runtime.GOARCH, s.Host.CPUModel)
	for _, p := range s.Points {
		for _, ec := range []struct {
			op, name string
			sec      float64
		}{
			{"Forward", "reference", p.ReferenceSec},
			{"Forward", "batch", p.BatchedSec},
			{"Gradient", "reference", p.ReferenceGradSec},
			{"Gradient", "batch", p.BatchedGradSec},
		} {
			if ec.sec > 0 {
				fmt.Fprintf(&b, "Benchmark%s/m=%d/kernels=%d/engine=%s 1 %.0f ns/op\n",
					ec.op, p.M, s.Kernels, ec.name, ec.sec*1e9)
			}
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// CompareFFTSweeps renders a per-size old-vs-new delta table for two sweep
// reports (the benchstat-free fallback of make bench-compare). Sizes present
// in only one report are skipped.
func CompareFFTSweeps(old, new *FFTSweep) string {
	oldAt := map[int]FFTPoint{}
	for _, p := range old.Points {
		oldAt[p.M] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s  %-14s  %-12s  %-12s  %s\n", "m", "engine", "old", "new", "delta")
	for _, np := range new.Points {
		op, ok := oldAt[np.M]
		if !ok {
			continue
		}
		row := func(name string, o, n float64) {
			delta := "n/a"
			if o > 0 && n > 0 {
				delta = fmt.Sprintf("%+.1f%%", (n/o-1)*100)
			}
			fmt.Fprintf(&b, "%-6d  %-14s  %10.4fs  %10.4fs  %s\n", np.M, name, o, n, delta)
		}
		row("reference", op.ReferenceSec, np.ReferenceSec)
		row("batch", op.BatchedSec, np.BatchedSec)
		if op.ReferenceGradSec > 0 || np.ReferenceGradSec > 0 {
			row("reference-grad", op.ReferenceGradSec, np.ReferenceGradSec)
			row("batch-grad", op.BatchedGradSec, np.BatchedGradSec)
		}
	}
	return b.String()
}

// GateFFTSweeps is the bench-compare regression gate: it fails when any
// engine at any size shared by both reports slowed down by more than
// maxRegressPct percent. Engines missing from either report (zero seconds)
// are skipped, so the gate stays usable across trajectory-schema changes —
// but a run that compared no (size, engine) pair at all is an error, not a
// pass: a renamed JSON key or a disjoint -sizes list would otherwise gate
// nothing. The threshold should be generous — single-rep timings on shared
// CI hosts are noisy — its job is catching catastrophic regressions (a
// pruning or fusion path silently disabled), not single-digit drift.
func GateFFTSweeps(old, new *FFTSweep, maxRegressPct float64) error {
	oldAt := map[int]FFTPoint{}
	for _, p := range old.Points {
		oldAt[p.M] = p
	}
	var fails []string
	compared := 0
	for _, np := range new.Points {
		op, ok := oldAt[np.M]
		if !ok {
			continue
		}
		check := func(name string, o, n float64) {
			if o <= 0 || n <= 0 {
				return
			}
			compared++
			if pct := (n/o - 1) * 100; pct > maxRegressPct {
				fails = append(fails, fmt.Sprintf("m=%d %s %+.1f%% (%.4fs → %.4fs)", np.M, name, pct, o, n))
			}
		}
		check("reference", op.ReferenceSec, np.ReferenceSec)
		check("batch", op.BatchedSec, np.BatchedSec)
		check("reference-grad", op.ReferenceGradSec, np.ReferenceGradSec)
		check("batch-grad", op.BatchedGradSec, np.BatchedGradSec)
	}
	if compared == 0 {
		return fmt.Errorf("bench: regression gate compared no (size, engine) pair: the reports share no size with timings for a known engine")
	}
	if len(fails) > 0 {
		return fmt.Errorf("bench: regression gate (>%g%%) failed:\n  %s", maxRegressPct, strings.Join(fails, "\n  "))
	}
	return nil
}

// LoadFFTSweep reads a sweep report written by WriteJSON.
func LoadFFTSweep(path string) (*FFTSweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s FFTSweep
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &s, nil
}
