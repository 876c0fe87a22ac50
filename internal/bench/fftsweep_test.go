package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFFTSweep(t *testing.T) {
	s, err := RunFFTSweep([]int{64, 128}, 512, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 || s.Kernels < 1 || s.P < 3 || s.Workers != 1 {
		t.Fatalf("sweep metadata incomplete: %+v", s)
	}
	for _, p := range s.Points {
		if p.ReferenceSec <= 0 || p.BatchedSec <= 0 || p.ReferenceGradSec <= 0 || p.BatchedGradSec <= 0 {
			t.Errorf("m=%d: non-positive timings %+v", p.M, p)
		}
		if p.BatchedGain <= 0 || p.BatchedGradGain <= 0 {
			t.Errorf("m=%d: speedups not computed %+v", p.M, p)
		}
	}

	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "fft.json")
	if err := s.WriteJSON(jsonPath); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFFTSweep(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != 2 || back.P != s.P {
		t.Errorf("round-tripped sweep lost data: %+v", back)
	}

	txtPath := filepath.Join(dir, "fft.txt")
	if err := s.WriteBenchstat(txtPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	txt := string(raw)
	// One benchmark line per (operation, size, engine), benchstat-parseable.
	if got := strings.Count(txt, "BenchmarkForward/"); got != 4 {
		t.Errorf("%d forward benchmark lines, want 4:\n%s", got, txt)
	}
	if got := strings.Count(txt, "BenchmarkGradient/"); got != 4 {
		t.Errorf("%d gradient benchmark lines, want 4:\n%s", got, txt)
	}
	if !strings.Contains(txt, "engine=batch ") || !strings.Contains(txt, "engine=reference ") || !strings.Contains(txt, "ns/op") {
		t.Errorf("benchstat format missing fields:\n%s", txt)
	}

	diff := CompareFFTSweeps(back, s)
	if !strings.Contains(diff, "reference") || !strings.Contains(diff, "batch-grad") || !strings.Contains(diff, "%") {
		t.Errorf("compare table incomplete:\n%s", diff)
	}
}

func TestGateFFTSweeps(t *testing.T) {
	old := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 0.5},
	}}
	same := &FFTSweep{Points: old.Points}
	if err := GateFFTSweeps(old, same, 25); err != nil {
		t.Errorf("identical sweeps should pass the gate: %v", err)
	}

	slow := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 1.5},
	}}
	err := GateFFTSweeps(old, slow, 25)
	if err == nil || !strings.Contains(err.Error(), "batch") {
		t.Errorf("3x batch regression should fail the gate naming the engine, got %v", err)
	}

	// The gradient pair is gated like the forward pair.
	gradOld := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 0.5, ReferenceGradSec: 2, BatchedGradSec: 1},
	}}
	gradSlow := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1, BatchedSec: 0.5, ReferenceGradSec: 2, BatchedGradSec: 3},
	}}
	if err := GateFFTSweeps(gradOld, gradSlow, 25); err == nil || !strings.Contains(err.Error(), "batch-grad") {
		t.Errorf("3x batched-gradient regression should fail the gate naming batch-grad, got %v", err)
	}
	if err := GateFFTSweeps(old, gradSlow, 25); err != nil {
		t.Errorf("a baseline without gradient columns gates the forward pair only: %v", err)
	}

	// Engines absent from the baseline (zero seconds) are skipped, so the
	// gate survives trajectory files predating a column family.
	noBatch := &FFTSweep{Points: []FFTPoint{
		{M: 64, ReferenceSec: 1},
	}}
	if err := GateFFTSweeps(noBatch, slow, 25); err != nil {
		t.Errorf("missing baseline column should be skipped: %v", err)
	}

	// A gate that compared nothing must not pass: disjoint sizes, a
	// baseline whose known columns are all zero (e.g. only legacy keys),
	// and an empty new report each leave zero (size, engine) pairs.
	otherSize := &FFTSweep{Points: []FFTPoint{{M: 128, ReferenceSec: 1, BatchedSec: 0.5}}}
	legacyOnly := &FFTSweep{Points: []FFTPoint{{M: 64}}}
	for _, tc := range []struct {
		name     string
		old, new *FFTSweep
	}{
		{"disjoint sizes", old, otherSize},
		{"no known column", legacyOnly, same},
		{"empty new", old, &FFTSweep{}},
	} {
		err := GateFFTSweeps(tc.old, tc.new, 25)
		if err == nil || !strings.Contains(err.Error(), "compared no") {
			t.Errorf("%s: gate over zero compared pairs should fail, got %v", tc.name, err)
		}
	}
}
