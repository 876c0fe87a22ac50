package server_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/server"
)

// panicPenalty panics from inside a grid.ParallelFor worker, so the panic
// reaches the executor the way a fault deep in the simulator would: re-raised
// by ParallelFor on the calling goroutine.
type panicPenalty struct{}

func (panicPenalty) Name() string { return "panic" }

func (panicPenalty) Eval(m *grid.Mat) (float64, *grid.Mat) {
	grid.ParallelFor(2, 2, func(i int) {
		if i == 1 {
			panic("injected penalty fault")
		}
	})
	return 0, grid.NewMat(m.W, m.H)
}

// A panicking job fails alone: it ends in "failed" with a structured
// reason and its stack in the event log, ilt_job_panics_total counts it,
// and the next job on the same daemon succeeds with a mask bit-identical
// to a fresh run.
func TestPanickingJobFailsAlone(t *testing.T) {
	want := goldenSHA(t)

	s, base := newTestServer(t, server.Config{Executors: 1})
	var armed atomic.Bool
	armed.Store(true)
	server.SetFaultHook(s, func(o *core.Options) {
		if armed.CompareAndSwap(true, false) {
			o.Penalties = append(o.Penalties, panicPenalty{})
		}
	})

	code, boom, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, base, boom, "failed", 2*time.Minute)
	if !strings.HasPrefix(st.Error, "panic: injected penalty fault") {
		t.Errorf("failed job reason = %q, want a panic: reason", st.Error)
	}

	var sawStack bool
	for _, f := range streamSSE(t, base, boom) {
		if f.Event != "job.panic" {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(f.Data), &ev); err != nil {
			t.Fatalf("job.panic frame: %v", err)
		}
		stack, _ := ev["stack"].(string)
		sawStack = strings.Contains(stack, "runJob")
	}
	if !sawStack {
		t.Error("event log has no job.panic event carrying the executor stack")
	}

	code, next, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit after panic: HTTP %d", code)
	}
	st = waitState(t, base, next, "done", 2*time.Minute)
	if st.Result == nil || st.Result.MaskSHA256 != want {
		t.Errorf("job after the panic: mask %v, want %s (fresh run)", st.Result, want)
	}

	req, err := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nilt_job_panics_total 1\n") {
		t.Errorf("/metrics lacks ilt_job_panics_total 1:\n%s", body)
	}
}

// nanPenalty makes the job's loss NaN from its first iteration.
type nanPenalty struct{}

func (nanPenalty) Name() string { return "nan" }

func (nanPenalty) Eval(m *grid.Mat) (float64, *grid.Mat) {
	return math.NaN(), grid.NewMat(m.W, m.H)
}

// A diverging job fails loudly and alone: it ends in "failed" with the
// core.DivergenceError as its reason and a stage.diverged event in its
// log, and the next job on the same daemon succeeds with a mask
// bit-identical to a fresh run.
func TestDivergingJobFailsAlone(t *testing.T) {
	want := goldenSHA(t)

	s, base := newTestServer(t, server.Config{Executors: 1})
	var armed atomic.Bool
	armed.Store(true)
	server.SetFaultHook(s, func(o *core.Options) {
		if armed.CompareAndSwap(true, false) {
			o.Penalties = append(o.Penalties, nanPenalty{})
		}
	})

	code, bad, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, base, bad, "failed", 2*time.Minute)
	reason := "core: stage 0: " + (&core.DivergenceError{Stage: 0, Iter: 0, Scale: 4}).Error()
	if st.Error != reason {
		t.Errorf("failed job reason = %q, want %q", st.Error, reason)
	}
	var sawDiverged bool
	for _, f := range streamSSE(t, base, bad) {
		sawDiverged = sawDiverged || f.Event == "stage.diverged"
	}
	if !sawDiverged {
		t.Error("event log has no stage.diverged event")
	}

	code, next, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit after divergence: HTTP %d", code)
	}
	st = waitState(t, base, next, "done", 2*time.Minute)
	if st.Result == nil || st.Result.MaskSHA256 != want {
		t.Errorf("job after the divergence: mask %v, want %s (fresh run)", st.Result, want)
	}
}

// A job whose gradient turns NaN on the last iteration of its last stage
// (the loss still finite, so nothing after it would notice) fails loudly
// and alone with a gradient DivergenceError, and the next job on the same
// daemon succeeds with a mask bit-identical to a fresh run.
func TestGradientDivergingJobFailsAlone(t *testing.T) {
	want := goldenSHA(t)

	s, base := newTestServer(t, server.Config{Executors: 1})
	var armed atomic.Bool
	armed.Store(true)
	server.SetFaultHook(s, func(o *core.Options) {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		// smallJob's last stage is {scale 2, iters 2}: poison its second
		// and last gradient.
		calls := 0
		o.GradHook = func(g *grid.Mat, st core.Stage) {
			if st.Scale != 2 {
				return
			}
			if calls++; calls == 2 {
				g.Data[0] = math.Inf(1)
			}
		}
	})

	code, bad, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	st := waitState(t, base, bad, "failed", 2*time.Minute)
	reason := "core: stage 1: " + (&core.DivergenceError{Stage: 1, Iter: 1, Scale: 2, Gradient: true}).Error()
	if st.Error != reason {
		t.Errorf("failed job reason = %q, want %q", st.Error, reason)
	}
	var sawDiverged bool
	for _, f := range streamSSE(t, base, bad) {
		sawDiverged = sawDiverged || f.Event == "stage.diverged"
	}
	if !sawDiverged {
		t.Error("event log has no stage.diverged event")
	}

	code, next, _ := submit(t, base, smallJob)
	if code != http.StatusAccepted {
		t.Fatalf("submit after divergence: HTTP %d", code)
	}
	st = waitState(t, base, next, "done", 2*time.Minute)
	if st.Result == nil || st.Result.MaskSHA256 != want {
		t.Errorf("job after the divergence: mask %v, want %s (fresh run)", st.Result, want)
	}
}
