package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/layout"
	"repro/internal/litho"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Config sizes a Server. The zero value selects the defaults noted per
// field.
type Config struct {
	// QueueCap bounds the number of *waiting* jobs; submissions beyond it
	// get 429 with a Retry-After hint (default 16).
	QueueCap int
	// Executors is the number of jobs run concurrently (default 2).
	Executors int
	// Limits bounds individual job requests.
	Limits Limits
	// Recorder receives server-level counters and is exported at
	// /debug/vars and /metrics. Nil creates a private recorder.
	Recorder *telemetry.Recorder
	// Now substitutes the clock used for job recorders (tests pin it for
	// golden event streams). Nil means time.Now.
	Now func() time.Time
}

// Server is the long-running ILT service: an http.Handler exposing job
// submission, status, cancellation, SSE progress streams, health and
// metrics, over a bounded two-priority queue and a fixed executor pool.
//
// Shared across jobs: the kernel-model cache (keyed by optics config),
// one fft.PlanCache, and the server recorder. Per job: process, simulator
// (with its scratch pools), optimizer, recorder, event log — see the
// package comment for the re-entrancy contract.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	rec    *telemetry.Recorder
	models modelCache
	plans  fft.PlanCache
	queue  *jobQueue

	// Server-level latency distributions, resolved once at New so the
	// executor/SSE paths observe without registry lookups.
	histQueueWait *telemetry.Histogram
	histRun       *telemetry.Histogram
	histSSEFlush  *telemetry.Histogram

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64

	draining  atomic.Bool
	executors sync.WaitGroup
	accepted  sync.WaitGroup // one unit per accepted, not-yet-terminal job

	// faultHook, when non-nil, edits each job's optimizer options just
	// before the run: the fault-injection seam of the panic-isolation
	// tests (set through export_test.go before the first submission).
	faultHook func(*core.Options)
}

// New builds a Server and starts its executor pool. Callers must Drain
// (or Close) it to stop the executors.
func New(cfg Config) *Server {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if cfg.Executors <= 0 {
		cfg.Executors = 2
	}
	cfg.Limits = cfg.Limits.withDefaults()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = telemetry.New()
	}
	s := &Server{
		cfg:   cfg,
		rec:   rec,
		queue: newJobQueue(cfg.QueueCap),
		jobs:  map[string]*Job{},

		histQueueWait: rec.Histogram("server.queue_wait", telemetry.HistDuration),
		histRun:       rec.Histogram("server.run", telemetry.HistDuration),
		histSSEFlush:  rec.Histogram("server.sse_flush", telemetry.HistDuration),
	}
	// Registered at zero so ilt_job_panics_total is exported from boot.
	rec.Add("job_panics", 0)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/mask", s.handleMask)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	telemetry.AttachDebug(s.mux, rec)

	for i := 0; i < cfg.Executors; i++ {
		s.executors.Add(1)
		go s.executor()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain performs the SIGTERM shutdown: new submissions are rejected with
// 503, every already-accepted job (queued or running) is finished, then
// the executors exit. If ctx expires first, all outstanding jobs are
// cancelled, the drain completes with whatever that leaves, and ctx's
// error is returned. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()

	finished := make(chan struct{})
	go func() {
		s.executors.Wait()
		s.accepted.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			if !j.State().Terminal() {
				j.Cancel()
			}
		}
		s.mu.Unlock()
		<-finished
		return ctx.Err()
	}
}

// Close cancels everything and drains immediately.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(ctx)
	if err == context.Canceled {
		err = nil
	}
	return err
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- submission -----------------------------------------------------------

// submitReply is the JSON body of a successful POST /jobs.
type submitReply struct {
	ID       string   `json:"id"`
	State    JobState `json:"state"`
	Priority string   `json:"priority"`
	Queued   int      `json:"queued"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.Limits.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := ParseJobRequest(body, s.cfg.Limits)
	if err != nil {
		s.rec.Add("server.jobs_rejected_invalid", 1)
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	j := s.newJob(spec)
	if err := s.queue.push(j); err != nil {
		s.forgetJob(j)
		switch err {
		case ErrQueueFull:
			s.rec.Add("server.jobs_rejected_full", 1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "queue full (%d waiting)", s.cfg.QueueCap)
		default:
			httpError(w, http.StatusServiceUnavailable, "server is draining")
		}
		return
	}
	s.rec.Add("server.jobs_submitted", 1)
	qi, qb := s.queue.depth()
	writeJSON(w, http.StatusAccepted, submitReply{
		ID: j.ID, State: StateQueued, Priority: j.Priority.String(), Queued: qi + qb,
	})
}

// newJob registers a job with its recorder, context and accounting. The
// job's recorder uses the server clock and feeds the job's event log; its
// first event records acceptance so SSE streams always open with one line.
func (s *Server) newJob(spec *JobSpec) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		Name:     spec.Name,
		Priority: spec.Priority,
		spec:     spec,
		ctx:      ctx,
		cancel:   cancel,
		state:    StateQueued,
		created:  time.Now(),
		done:     make(chan struct{}),
	}
	j.events.init()
	j.rec = telemetry.New(
		telemetry.WithClock(s.cfg.Now),
		telemetry.WithSink(&j.events),
	)

	s.mu.Lock()
	s.nextID++
	j.ID = "job-" + strconv.FormatInt(s.nextID, 10)
	s.jobs[j.ID] = j
	s.mu.Unlock()
	s.accepted.Add(1)
	go func() {
		<-j.done
		s.accepted.Done()
	}()

	j.rec.Emit("job.accepted", telemetry.Fields{
		"id": j.ID, "name": j.Name, "priority": j.Priority.String(),
		"n": j.spec.Target.W, "stages": len(j.spec.Stages),
	})
	return j
}

// forgetJob rolls back newJob for a submission the queue rejected.
func (s *Server) forgetJob(j *Job) {
	s.mu.Lock()
	delete(s.jobs, j.ID)
	s.mu.Unlock()
	j.cancel()
	j.closeEvents() // releases the accepted-WaitGroup unit
}

// --- execution ------------------------------------------------------------

func (s *Server) executor() {
	defer s.executors.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if !j.markRunning() {
			continue // canceled while queued
		}
		s.histQueueWait.ObserveDuration(time.Since(j.created))
		s.runJob(j)
	}
}

// runJob executes one job end to end on the calling executor goroutine.
// Everything it constructs — process, simulator, optimizer — is private to
// the job; the only shared inputs are the immutable kernel model, the
// singleflight plan cache and the server recorder's atomic counters. A
// panic anywhere in the job fails that job alone (failPanicked).
func (s *Server) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.failPanicked(j, r)
		}
	}()
	rec := j.rec
	spec := j.spec
	rec.Emit("run.start", telemetry.Fields{
		"tool": "iltserver", "name": j.Name, "id": j.ID,
		"n": spec.Target.W, "field_nm": spec.Optics.FieldNM, "kernels": spec.Optics.NumKernels,
	})

	model, built, err := s.models.get(spec.Optics)
	if err != nil {
		s.finishJob(j, StateFailed, fmt.Sprintf("optics: %v", err), nil, nil)
		return
	}
	if built {
		s.rec.Add("server.model_builds", 1)
	} else {
		s.rec.Add("server.model_hits", 1)
	}

	p := litho.NewProcess(model)
	p.Sim.Plans = &s.plans
	p.Sim.Workers = spec.Req.Workers
	// Engine validity was checked at submit time (resolveJob).
	p.Sim.Engine, _ = litho.ParseEngine(spec.Req.Engine)
	p.Sim.Recorder = rec

	opts := core.DefaultOptions(p)
	opts.Recorder = rec
	opts.Workers = spec.Req.Workers
	opts.Momentum = spec.Req.Momentum
	opts.LineSearch = spec.Req.LineSearch
	opts.Patience = spec.Req.Patience
	if spec.Req.TV > 0 {
		opts.Penalties = append(opts.Penalties, core.TVPenalty{Lambda: spec.Req.TV})
	}
	if spec.Req.Curvature > 0 {
		opts.Penalties = append(opts.Penalties, core.CurvaturePenalty{Lambda: spec.Req.Curvature})
	}

	if s.faultHook != nil {
		s.faultHook(&opts)
	}
	o, err := core.New(opts, spec.Target)
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil, nil)
		return
	}
	res, err := o.Run(j.ctx, spec.Stages)
	if err != nil {
		if j.ctx.Err() != nil {
			s.finishJob(j, StateCanceled, "canceled", nil, nil)
		} else {
			s.finishJob(j, StateFailed, err.Error(), nil, nil)
		}
		return
	}

	result := &JobResult{
		Iterations: res.Iterations,
		ILTSeconds: res.ILTSeconds,
		MaskSHA256: maskFingerprint(res.Mask),
	}
	if n := len(res.History); n > 0 {
		result.FinalLoss = res.History[n-1].Loss.Total()
	}
	if spec.Req.Metrics {
		px := spec.Optics.FieldNM / float64(spec.Target.W)
		spacing, thr := epeParams(px)
		rep, err := metrics.Evaluate(p, res.Mask, spec.Target, spacing, thr)
		if err != nil {
			s.finishJob(j, StateFailed, fmt.Sprintf("metrics: %v", err), nil, nil)
			return
		}
		rep = rep.Scale(px)
		result.L2, result.PVB = &rep.L2, &rep.PVB
		result.EPE, result.Shots = &rep.EPE, &rep.Shots
	}
	rec.Emit("run.end", telemetry.Fields{
		"wall_sec": rec.Elapsed(), "ilt_sec": res.ILTSeconds,
		"iterations": res.Iterations, "mask_sha256": result.MaskSHA256,
	})
	s.finishJob(j, StateDone, "", result, res.Mask)
}

// finishJob closes the job's recorder (flushing the phases event into the
// SSE log), folds the job's aggregates into the server recorder so /metrics
// reports cross-job phase totals and latency distributions, records the
// terminal state and bumps the server counters.
func (s *Server) finishJob(j *Job, state JobState, errMsg string, res *JobResult, m *grid.Mat) {
	_ = j.rec.Close() // sinks are in-memory; Close cannot fail, but errcheck keeps us honest
	s.rec.Merge(j.rec)
	if started := j.startedAt(); !started.IsZero() {
		s.histRun.ObserveDuration(time.Since(started))
	}
	j.finish(state, errMsg, res, m)
	switch state {
	case StateDone:
		s.rec.Add("server.jobs_completed", 1)
	case StateFailed:
		s.rec.Add("server.jobs_failed", 1)
	case StateCanceled:
		s.rec.Add("server.jobs_canceled", 1)
	}
}

// failPanicked ends a job whose run panicked — in the optimizer, the
// simulator, or a worker panic that grid.ParallelFor re-raised on the
// executor: the panic value and stack go into the job's event log as a
// job.panic event, the job fails with the reason "panic: <value>", and
// ilt_job_panics_total counts it. The executor then takes the next job;
// no state is shared with it beyond the immutable model and plan caches.
func (s *Server) failPanicked(j *Job, r any) {
	s.rec.Add("job_panics", 1)
	if j.State().Terminal() {
		return // the panic came after the job was already finished
	}
	j.rec.Emit("job.panic", telemetry.Fields{"value": fmt.Sprint(r), "stack": string(debug.Stack())})
	s.finishJob(j, StateFailed, fmt.Sprintf("panic: %v", r), nil, nil)
}

func epeParams(pixelNM float64) (spacingPx, thrPx int) {
	spacingPx = int(math.Round(metrics.EPESpacingNM / pixelNM))
	if spacingPx < 1 {
		spacingPx = 1
	}
	thrPx = int(math.Round(metrics.EPEThresholdNM / pixelNM))
	if thrPx < 1 {
		thrPx = 1
	}
	return spacingPx, thrPx
}

// --- status / cancel / artifacts ------------------------------------------

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	out := make([]statusJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	// Deterministic order: job-N ids sort by the numeric suffix.
	sort.Slice(out, func(a, b int) bool { return jobSeq(out[a].ID) < jobSeq(out[b].ID) })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if j.Cancel() {
		s.rec.Add("server.jobs_canceled", 1)
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleMask(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	m := j.mask
	state := j.state
	j.mu.Unlock()
	if m == nil {
		httpError(w, http.StatusConflict, "job %s has no mask (state %s)", j.ID, state)
		return
	}
	px := j.spec.Optics.FieldNM / float64(m.W)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := layout.FromMask(m, px).Write(w); err != nil {
		// Too late for a status change; the client sees a short read.
		return
	}
}

// --- SSE ------------------------------------------------------------------

// handleEvents streams the job's event log as server-sent events: each
// telemetry event becomes one SSE frame with the event name, the seq as
// the SSE id, and the trace-sink JSON object as data. The stream replays
// history first, then follows live until the job reaches a terminal state
// (the final frame is "event: end") or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	sent := 0
	for {
		lines, names, done, changed := j.events.wait(sent)
		flushStart := time.Now()
		for i, b := range lines {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", sent+i+1, names[i], b)
		}
		sent += len(lines)
		fl.Flush()
		if len(lines) > 0 { // empty wakeups would only measure the latch
			s.histSSEFlush.ObserveDuration(time.Since(flushStart))
		}
		if done {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// --- health / metrics -----------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	qi, qb := s.queue.depth()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"queued":    qi + qb,
		"executors": s.cfg.Executors,
	})
}

// metricsJSON is the GET /metrics document: the server recorder snapshot
// (the same data the "ilt" expvar exports) plus queue and runtime gauges.
type metricsJSON struct {
	ElapsedSec   float64        `json:"elapsed_sec"`
	QueueDepth   int            `json:"queue_depth"`
	QueueHigh    int            `json:"queue_interactive"`
	Jobs         map[string]int `json:"jobs_by_state"`
	CachedModels int            `json:"cached_models"`
	CachedPlans  int            `json:"cached_fft_plans"`
	// Shared FFT transform-table dedup (see internal/fft tables.go): total
	// payload bytes of the tables built by this process, and how many plan
	// constructions reused an existing set.
	FFTTableBytes int64                  `json:"fft_table_bytes"`
	FFTTableReuse int64                  `json:"fft_table_reuse"`
	Counters      map[string]int64       `json:"counters"`
	Phases        []telemetry.PhaseStat  `json:"phases,omitempty"`
	Histograms    []telemetry.HistStat   `json:"histograms,omitempty"`
	Runtime       telemetry.RuntimeStats `json:"runtime"`
}

// handleMetrics negotiates on the Accept header: Prometheus scrapers (which
// send text/plain or application/openmetrics-text) get the text exposition;
// everything else — including header-less curl and the existing tests —
// keeps the JSON document.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text") {
		s.writePrometheusMetrics(w)
		return
	}
	qi, qb := s.queue.depth()
	writeJSON(w, http.StatusOK, metricsJSON{
		ElapsedSec:    s.rec.Elapsed(),
		QueueDepth:    qi + qb,
		QueueHigh:     qi,
		Jobs:          s.jobsByState(),
		CachedModels:  s.models.size(),
		CachedPlans:   s.plans.Sizes(),
		FFTTableBytes: fft.TableBytes(),
		FFTTableReuse: fft.TableReuse(),
		Counters:      s.rec.Counters(),
		Phases:        s.rec.Phases(),
		Histograms:    s.rec.Histograms(),
		Runtime:       telemetry.ReadRuntime(),
	})
}

func (s *Server) jobsByState() map[string]int {
	byState := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[string(j.State())]++
	}
	s.mu.Unlock()
	return byState
}

// writePrometheusMetrics renders the text exposition: queue/cache/job
// gauges, then the recorder's counters, phase totals and histogram series,
// then the runtime block. The jobs gauge always emits all five lifecycle
// states so the series set is stable from boot.
func (s *Server) writePrometheusMetrics(w http.ResponseWriter) {
	byState := s.jobsByState()
	qi, qb := s.queue.depth()

	var buf bytes.Buffer
	telemetry.WriteGauge(&buf, "ilt_queue_depth", float64(qi+qb))
	telemetry.WriteGauge(&buf, "ilt_queue_interactive", float64(qi))
	telemetry.WriteGauge(&buf, "ilt_cached_models", float64(s.models.size()))
	telemetry.WriteGauge(&buf, "ilt_cached_fft_plans", float64(s.plans.Sizes()))
	telemetry.WriteGauge(&buf, "ilt_fft_table_bytes", float64(fft.TableBytes()))
	fmt.Fprintf(&buf, "# TYPE ilt_fft_table_reuse_total counter\nilt_fft_table_reuse_total %d\n", fft.TableReuse())
	telemetry.WriteGauge(&buf, "ilt_elapsed_seconds", s.rec.Elapsed())
	fmt.Fprint(&buf, "# TYPE ilt_jobs gauge\n")
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		fmt.Fprintf(&buf, "ilt_jobs{state=%q} %d\n", string(st), byState[string(st)])
	}
	s.rec.WritePrometheus(&buf)
	telemetry.ReadRuntime().WritePrometheus(&buf)

	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes()) // a failed write is the client's disconnect
}

// --- helpers --------------------------------------------------------------

// jobSeq extracts the numeric suffix of a "job-N" id (0 on mismatch).
func jobSeq(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	return n
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a failed write is the client's disconnect
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
