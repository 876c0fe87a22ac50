package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// executors is the daemon's job concurrency, and clients the closed loop's
// width: the host's two CPUs, each job fanning out inside itself.
const (
	executors = 2
	clients   = 2
)

// daemon is an in-process server.Server behind a loopback HTTP listener.
type daemon struct {
	srv    *server.Server
	rec    *telemetry.Recorder
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rec := telemetry.New()
	srv := server.New(server.Config{Executors: executors, Recorder: rec})
	d := &daemon{
		srv:    srv,
		rec:    rec,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the job queue, shuts the listener and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := d.srv.Drain(ctx)
	serr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	d.client.CloseIdleConnections()
	return errors.Join(derr, serr)
}

// jobRequest is the POST /jobs body for a clip. The server has no
// optimizing-region option, so region clips are sent unconstrained.
func jobRequest(c clip) ([]byte, clip) {
	c.Region = false
	req := server.JobRequest{
		N: c.N, FieldNM: c.FieldNM, Kernels: c.Kernels,
		Recipe: c.Recipe, IterDiv: c.IterDiv, Metrics: true,
	}
	if c.Via {
		req.Via, req.Patience = c.Case, core.ViaPatience
	} else {
		req.Case = c.Case
	}
	b, _ := json.Marshal(req) // a plain struct of numbers and strings always marshals
	return b, c
}

type jobStatus struct {
	State  string            `json:"state"`
	Error  string            `json:"error"`
	Result *server.JobResult `json:"result"`
}

// submit POSTs one clip and follows its SSE stream to the terminal event.
// The outcome's wall time runs from POST to that event; a refused (429)
// or failed job returns an outcome with Err set. submitSec is the POST
// reply time.
func (d *daemon) submit(c clip) (o outcome, submitSec float64, err error) {
	body, c := jobRequest(c)
	o.Clip = c
	start := time.Now()
	code, reply, err := d.post(body)
	submitSec = time.Since(start).Seconds()
	if err != nil {
		return o, submitSec, err
	}
	if code != http.StatusAccepted {
		o.Err = fmt.Sprintf("POST /jobs: HTTP %d", code)
		o.Wall = time.Since(start).Seconds()
		return o, submitSec, nil
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(reply, &sub); err != nil {
		return o, submitSec, fmt.Errorf("POST /jobs reply: %w", err)
	}
	if err := d.awaitEnd(sub.ID); err != nil {
		return o, submitSec, err
	}
	o.Wall = time.Since(start).Seconds()

	st, err := d.status(sub.ID)
	if err != nil {
		return o, submitSec, err
	}
	if st.State != "done" || st.Result == nil {
		o.Err = fmt.Sprintf("job %s: %s %s", st.State, sub.ID, st.Error)
		return o, submitSec, nil
	}
	r := st.Result
	o.Mask = r.MaskSHA256
	if r.L2 == nil || r.PVB == nil || r.EPE == nil || r.Shots == nil {
		o.Err = "job result without metrics"
		return o, submitSec, nil
	}
	o.L2, o.PVB, o.EPE, o.Shots = *r.L2, *r.PVB, *r.EPE, *r.Shots
	return o, submitSec, nil
}

func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// awaitEnd reads the job's event stream until the server's end frame.
func (d *daemon) awaitEnd(id string) error {
	resp, err := d.client.Get(d.base + "/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "event: end" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events %s: stream closed before the end frame", id)
}

func (d *daemon) status(id string) (jobStatus, error) {
	var st jobStatus
	resp, err := d.client.Get(d.base + "/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
