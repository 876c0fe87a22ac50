// Command iltserver runs mask optimization as a long-running HTTP/JSON
// service over the multi-level pipeline (see DESIGN.md, "Serving"):
//
//	iltserver -addr localhost:8080 -jobs 2 -queue 16
//
// Endpoints:
//
//	POST   /jobs              submit a job (JSON; 202, or 429 when the queue is full)
//	GET    /jobs              list jobs
//	GET    /jobs/{id}         job status and result summary
//	DELETE /jobs/{id}         cancel a queued or running job
//	GET    /jobs/{id}/events  per-iteration progress as server-sent events
//	GET    /jobs/{id}/mask    final mask as layout text
//	GET    /healthz           liveness (reports "draining" during shutdown)
//	GET    /metrics           queue gauges, cache sizes, counters, phases
//	GET    /debug/vars        expvar (includes the "ilt" recorder snapshot)
//	GET    /debug/pprof/      pprof
//
// SIGTERM/SIGINT starts a graceful drain: new submissions are rejected
// with 503 while accepted jobs run to completion (bounded by
// -drain-timeout, after which they are cancelled); status and event
// streams stay available throughout.
//
// -smoke runs the CI smoke flow against an ephemeral in-process listener:
// submit one small job over real HTTP, stream its events to completion,
// check /healthz and /metrics, then drain.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iltserver:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:8080", "listen address (host:port, :0 for ephemeral)")
	jobs := flag.Int("jobs", 2, "number of jobs run concurrently")
	queue := flag.Int("queue", 16, "waiting-job queue capacity (beyond it, submissions get 429)")
	maxN := flag.Int("max-n", 2048, "largest accepted simulation grid side")
	maxIters := flag.Int("max-iters", 2000, "largest accepted total iteration budget")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Minute, "graceful-drain bound after SIGTERM; running jobs are cancelled at the deadline")
	smoke := flag.Bool("smoke", false, "run the self-contained smoke flow and exit")
	flag.Parse()

	rec := telemetry.New()
	srv := server.New(server.Config{
		QueueCap:  *queue,
		Executors: *jobs,
		Limits:    server.Limits{MaxN: *maxN, MaxIters: *maxIters},
		Recorder:  rec,
	})

	if *smoke {
		return runSmoke(srv)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		_ = srv.Close() // nothing accepted yet; no drain result to lose
		return err
	}
	hsrv := newHTTPServer(srv)
	go hsrv.Serve(ln)
	fmt.Printf("iltserver listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "iltserver: draining (new submissions rejected)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	err = srv.Drain(dctx)
	if cerr := hsrv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "iltserver: drained cleanly")
	return nil
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers: a client that never finishes them (slowloris) is disconnected
// instead of holding a connection forever. A variable only so tests can
// shorten it.
var readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests.
const idleTimeout = 2 * time.Minute

// newHTTPServer wraps h in the daemon's HTTP server. There is deliberately
// no WriteTimeout (or ReadTimeout): the SSE event streams must outlive any
// fixed per-request deadline, and once the headers are read net/http lifts
// the header deadline.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// runSmoke exercises the full serving loop over real HTTP on an ephemeral
// port: healthz, one small end-to-end job streamed to completion via SSE,
// a result check, metrics, and a clean drain. It is the `make
// server-smoke` lane.
func runSmoke(srv *server.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close() // nothing accepted yet; no drain result to lose
		return err
	}
	hsrv := newHTTPServer(srv)
	go hsrv.Serve(ln)
	defer hsrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: server on %s\n", base)

	// 1. healthz
	var health struct {
		Status string `json:"status"`
	}
	if err := getJSON(base+"/healthz", &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if health.Status != "ok" {
		return fmt.Errorf("healthz status %q, want ok", health.Status)
	}
	fmt.Println("smoke: healthz ok")

	// 2. submit one small job
	req := map[string]any{
		"case": 1, "n": 128, "field_nm": 512, "kernels": 8,
		"recipe": "fast", "iterdiv": 8, "workers": 1,
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var accepted struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	_ = resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit reply: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || accepted.ID == "" {
		return fmt.Errorf("submit: status %d, id %q", resp.StatusCode, accepted.ID)
	}
	fmt.Printf("smoke: submitted %s\n", accepted.ID)

	// 3. stream events to completion
	events, err := streamEvents(base, accepted.ID)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	for _, want := range []string{"job.accepted", "run.start", "iter", "run.end", "phases"} {
		if events[want] == 0 {
			return fmt.Errorf("event stream missing %q (saw %v)", want, events)
		}
	}
	fmt.Printf("smoke: streamed %d iter events to completion\n", events["iter"])

	// 4. final status
	var status struct {
		State  string `json:"state"`
		Result *struct {
			Iterations int    `json:"iterations"`
			MaskSHA256 string `json:"mask_sha256"`
		} `json:"result"`
	}
	if err := getJSON(base+"/jobs/"+accepted.ID, &status); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if status.State != "done" || status.Result == nil || status.Result.MaskSHA256 == "" {
		return fmt.Errorf("job finished as %q with result %+v", status.State, status.Result)
	}
	fmt.Printf("smoke: job done after %d iterations, mask %s…\n",
		status.Result.Iterations, status.Result.MaskSHA256[:12])

	// 5. metrics
	var m struct {
		Jobs map[string]int `json:"jobs_by_state"`
	}
	if err := getJSON(base+"/metrics", &m); err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	if m.Jobs["done"] != 1 {
		return fmt.Errorf("metrics jobs_by_state %v, want one done", m.Jobs)
	}

	// 5b. Prometheus scrape: the same endpoint under content negotiation must
	// expose the counter, gauge, and histogram series a scraper depends on.
	prom, err := scrapePrometheus(base + "/metrics")
	if err != nil {
		return fmt.Errorf("prometheus scrape: %w", err)
	}
	for _, want := range []string{
		"ilt_server_jobs_submitted_total 1",
		`ilt_jobs{state="done"} 1`,
		`ilt_server_queue_wait_seconds_bucket{le="+Inf"} 1`,
		`ilt_server_run_seconds_bucket{le="+Inf"} 1`,
		"ilt_server_sse_flush_seconds_count",
		`ilt_core_iter_seconds_bucket{le="+Inf"}`,
		`ilt_phase_seconds_total{phase="litho.socs"}`,
		"ilt_goroutines",
		"ilt_heap_inuse_bytes",
		"ilt_gc_pause_seconds_total",
	} {
		if !strings.Contains(prom, want) {
			return fmt.Errorf("prometheus exposition missing %q:\n%s", want, prom)
		}
	}
	fmt.Printf("smoke: prometheus exposition ok (%d bytes)\n", len(prom))

	// 6. drain
	dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	var drained struct {
		Status string `json:"status"`
	}
	if err := getJSON(base+"/healthz", &drained); err != nil {
		return fmt.Errorf("healthz after drain: %w", err)
	}
	if drained.Status != "draining" {
		return fmt.Errorf("healthz after drain reports %q", drained.Status)
	}
	fmt.Println("smoke: PASS")
	return nil
}

// streamEvents follows the SSE stream until the terminal "end" frame and
// returns the event-name counts.
func streamEvents(base, id string) (map[string]int, error) {
	resp, err := http.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event: ") {
			continue
		}
		name := strings.TrimPrefix(line, "event: ")
		if name == "end" {
			return counts, nil
		}
		counts[name]++
	}
	return nil, fmt.Errorf("stream ended without an end frame (after %v, err %v)", counts, sc.Err())
}

// scrapePrometheus fetches url the way a Prometheus scraper would (Accept:
// text/plain) and returns the exposition body.
func scrapePrometheus(url string) (string, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return "", fmt.Errorf("content-type %q, want text/plain; version=0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
