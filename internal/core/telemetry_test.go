package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/telemetry"
)

type eventSink struct{ events []telemetry.Event }

func (s *eventSink) Emit(e telemetry.Event) { s.events = append(s.events, e) }
func (s *eventSink) Flush() error           { return nil }

// The optimizer streams one stage.start / iter* / stage.end bracket per
// stage, and the iter payload carries the loss decomposition the console and
// trace sinks render. IterRecord mirrors the same data for library callers.
func TestRunStageEmitsIterationEvents(t *testing.T) {
	p := process(t)
	sink := &eventSink{}
	rec := telemetry.New(telemetry.WithSink(sink))
	opts := DefaultOptions(p)
	opts.Recorder = rec
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	stages := []Stage{{Scale: 4, Iters: 3}, {Scale: 4, HighRes: true, Iters: 2}}
	res, err := o.Run(context.Background(), stages)
	if err != nil {
		t.Fatal(err)
	}

	iters := map[int]int{}
	var order []string
	for _, e := range sink.events {
		order = append(order, e.Name)
		switch e.Name {
		case "stage.start":
			if _, ok := e.Fields["scale"]; !ok {
				t.Errorf("stage.start missing scale: %v", e.Fields)
			}
		case "iter":
			st, _ := e.Fields["stage"].(int)
			iters[st]++
			for _, k := range []string{"iter", "loss", "l2", "pvb", "step", "retries", "sec"} {
				if _, ok := e.Fields[k]; !ok {
					t.Fatalf("iter event missing %q: %v", k, e.Fields)
				}
			}
		}
	}
	want := []string{"stage.start", "iter", "iter", "iter", "stage.end",
		"stage.start", "iter", "iter", "stage.end"}
	if len(order) != len(want) {
		t.Fatalf("event order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order %v, want %v", order, want)
		}
	}
	if iters[0] != 3 || iters[1] != 2 {
		t.Errorf("per-stage iter counts %v, want 3 and 2", iters)
	}
	if len(res.History) != 5 {
		t.Fatalf("history has %d records, want 5", len(res.History))
	}
	for i, h := range res.History {
		if h.Seconds <= 0 {
			t.Errorf("history[%d] missing per-iteration wall time", i)
		}
		if i < 3 && (h.Stage != 0 || h.Scale != 4 || h.HighRes) {
			t.Errorf("history[%d] = %+v, want stage 0 s=4 low-res", i, h)
		}
		if i >= 3 && (h.Stage != 1 || !h.HighRes) {
			t.Errorf("history[%d] = %+v, want stage 1 high-res", i, h)
		}
	}
}

// A nil recorder must leave Run behaviour identical (same history shape, no
// events, no panics) — the disabled default for every existing caller.
func TestRunWithoutRecorder(t *testing.T) {
	p := process(t)
	opts := DefaultOptions(p)
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history %d, want 2", len(res.History))
	}
}

// nanPenalty makes every loss total NaN.
type nanPenalty struct{}

func (nanPenalty) Name() string { return "nan" }
func (nanPenalty) Eval(m *grid.Mat) (float64, *grid.Mat) {
	return math.NaN(), grid.NewMat(m.W, m.H)
}

// A non-finite loss stops Run at that iteration with a typed
// DivergenceError, after a stage.diverged event and before any iter event
// or parameter update.
func TestRunDivergenceFailsLoudly(t *testing.T) {
	sink := &eventSink{}
	opts := DefaultOptions(process(t))
	opts.Recorder = telemetry.New(telemetry.WithSink(sink))
	opts.Penalties = []Penalty{nanPenalty{}}
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	_, err = o.Run(context.Background(), []Stage{{Scale: 4, Iters: 3}})
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("Run error = %v, want a *DivergenceError", err)
	}
	if *de != (DivergenceError{Stage: 0, Iter: 0, Scale: 4}) {
		t.Errorf("DivergenceError = %+v, want stage 0, iter 0, scale 4", *de)
	}
	var order []string
	for _, e := range sink.events {
		order = append(order, e.Name)
	}
	if len(order) != 2 || order[0] != "stage.start" || order[1] != "stage.diverged" {
		t.Fatalf("event order %v, want [stage.start stage.diverged]", order)
	}
	f := sink.events[1].Fields
	if f["stage"] != 0 || f["iter"] != 0 || f["scale"] != 4 {
		t.Errorf("stage.diverged fields %v, want stage 0, iter 0, scale 4", f)
	}
}

// A non-finite gradient on a stage's last iteration, where the loss is
// still finite and may be the stage's best, stops Run with a gradient
// DivergenceError instead of returning the NaN-updated parameters as the
// result.
func TestRunGradientDivergenceOnLastIteration(t *testing.T) {
	sink := &eventSink{}
	opts := DefaultOptions(process(t))
	opts.Recorder = telemetry.New(telemetry.WithSink(sink))
	calls := 0
	opts.GradHook = func(g *grid.Mat, st Stage) {
		if calls++; calls == 3 {
			g.Data[len(g.Data)/2] = math.NaN()
		}
	}
	o, err := New(opts, testTarget())
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run(context.Background(), []Stage{{Scale: 4, Iters: 3}})
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("Run error = %v (result %v), want a *DivergenceError", err, res != nil)
	}
	if *de != (DivergenceError{Stage: 0, Iter: 2, Scale: 4, Gradient: true}) {
		t.Errorf("DivergenceError = %+v, want stage 0, iter 2, scale 4, gradient", *de)
	}
	if !strings.HasPrefix(de.Error(), "gradient diverged") {
		t.Errorf("error %q does not name the gradient", de.Error())
	}
	last := sink.events[len(sink.events)-1]
	if last.Name != "stage.diverged" || last.Fields["iter"] != 2 || last.Fields["gradient"] != true {
		t.Errorf("last event %s %v, want stage.diverged at iter 2 with gradient true", last.Name, last.Fields)
	}
}
