package main

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func okOutcome(c clip, mask string) outcome {
	return outcome{Clip: c, Wall: 1, Mask: mask, L2: 1, PVB: 1}
}

func TestLedgerChecks(t *testing.T) {
	a := small
	a.Case = 1
	b := small
	b.Case = 2
	l := newLedger()
	steps := []struct {
		o    outcome
		pass bool
	}{
		{okOutcome(a, "m1"), true},
		{okOutcome(a, "m1"), true},                             // repeat, same mask
		{okOutcome(b, "m2"), true},                             // other spec, other mask
		{okOutcome(a, "m3"), false},                            // repeat, different mask
		{outcome{Clip: b, Err: "POST /jobs: HTTP 429"}, false}, // refused
		{okOutcome(b, ""), false},                              // mask missing
		{outcome{Clip: b, Mask: "m2", L2: math.NaN()}, false},
		{outcome{Clip: b, Mask: "m2", PVB: math.Inf(1)}, false},
	}
	for i, s := range steps {
		if got := l.add(s.o); got != s.pass {
			t.Errorf("step %d: add = %v, want %v", i, got, s.pass)
		}
	}
	if l.attempted != 8 || l.failed != 5 || l.incorrect != 4 || len(l.done) != 3 {
		t.Errorf("attempted %d failed %d incorrect %d done %d, want 8 5 4 3",
			l.attempted, l.failed, l.incorrect, len(l.done))
	}
	inf := 0
	for _, w := range l.walls {
		if math.IsInf(w, 1) {
			inf++
		}
	}
	if len(l.walls) != 8 || inf != 5 {
		t.Errorf("walls %v: want 8 samples, 5 of them +Inf", l.walls)
	}
}

func TestLedgerConcurrentAdds(t *testing.T) {
	l := newLedger()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := small
				c.Case = i%5 + 1
				l.add(okOutcome(c, fmt.Sprint("mask", c.Case)))
			}
		}(g)
	}
	wg.Wait()
	if l.attempted != 200 || l.failed != 0 || len(l.walls) != 200 {
		t.Errorf("attempted %d failed %d walls %d, want 200 0 200", l.attempted, l.failed, len(l.walls))
	}
}

// fakeDaemon answers the job API with a fixed submit status and, for
// accepted jobs, a fixed terminal state.
func fakeDaemon(t *testing.T, submitCode int, state string) *daemon {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(submitCode)
		fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
	})
	mux.HandleFunc("GET /jobs/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "id: 1\nevent: job.accepted\ndata: {}\n\nevent: end\ndata: {}\n\n")
	})
	mux.HandleFunc("GET /jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":"job-1","state":%q,"error":"diverged"}`, state)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &daemon{base: ts.URL, client: ts.Client()}
}

// A refused (429) and a failed job each count as attempted and failed,
// and enter the latency sample as missing every limit.
func TestRefusedAndFailedJobsCountAsFailed(t *testing.T) {
	for _, tc := range []struct {
		name  string
		code  int
		state string
	}{
		{"refused", http.StatusTooManyRequests, ""},
		{"failed", http.StatusAccepted, "failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := fakeDaemon(t, tc.code, tc.state)
			o, _, err := d.submit(warmClip)
			if err != nil {
				t.Fatal(err)
			}
			if o.Err == "" {
				t.Fatal("outcome has no error")
			}
			l := newLedger()
			if l.add(o) {
				t.Fatal("ledger passed the job")
			}
			if l.attempted != 1 || l.failed != 1 || !math.IsInf(percentile(l.walls, 0.9), 1) {
				t.Errorf("attempted %d failed %d p90 %g, want 1 1 +Inf", l.attempted, l.failed, percentile(l.walls, 0.9))
			}
		})
	}
}
