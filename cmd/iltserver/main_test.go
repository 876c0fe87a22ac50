package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveStub starts newHTTPServer over h on an ephemeral port with the
// header timeout shortened to d, and returns the base URL.
func serveStub(t *testing.T, d time.Duration, h http.Handler) string {
	t.Helper()
	saved := readHeaderTimeout
	readHeaderTimeout = d
	t.Cleanup(func() { readHeaderTimeout = saved })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsrv := newHTTPServer(h)
	go hsrv.Serve(ln)
	t.Cleanup(func() { _ = hsrv.Close() })
	return ln.Addr().String()
}

// A client that sends a partial request line and headers but never the
// terminating blank line must be disconnected once the header timeout
// passes, not hold the connection forever.
func TestServerDropsUnfinishedHeaders(t *testing.T) {
	const timeout = 200 * time.Millisecond
	addr := serveStub(t, timeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("handler reached by a request whose headers never finished")
	}))
	// The server starts its header clock when it begins reading the new
	// connection, which can precede Dial's return here, so the client's
	// clock must start before the dial for the lower bound below to hold.
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /jobs HTTP/1.1\r\nHost: stub\r\nX-Slow: 1\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client's own deadline is far beyond the server's: reaching it
	// means the server kept the stalled connection open.
	if err := conn.SetReadDeadline(time.Now().Add(20 * timeout)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server still held the connection after %v (header timeout %v)", time.Since(start), timeout)
	}
	if el := time.Since(start); el < timeout {
		t.Errorf("connection closed after %v, before the %v header timeout", el, timeout)
	}
}

// An event stream that runs several header timeouts long must still
// complete: the header deadline is lifted once the request is read, and
// there is no write deadline.
func TestServerStreamOutlivesHeaderTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const frames = 6 // 6 × timeout/2 = 3 header timeouts of streaming
	addr := serveStub(t, timeout, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fl := w.(http.Flusher)
		for i := 0; i < frames; i++ {
			fmt.Fprintf(w, "event: tick\ndata: %d\n\n", i)
			fl.Flush()
			time.Sleep(timeout / 2)
		}
		fmt.Fprint(w, "event: end\ndata: {}\n\n")
	}))
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	ticks, ended := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch strings.TrimPrefix(sc.Text(), "event: ") {
		case "tick":
			ticks++
		case "end":
			ended = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke after %v: %v", time.Since(start), err)
	}
	if ticks != frames || !ended {
		t.Errorf("stream delivered %d/%d ticks, end frame %v", ticks, frames, ended)
	}
	if el := time.Since(start); el < 2*timeout {
		t.Errorf("stream finished after %v; it should have outlived the %v header timeout", el, timeout)
	}
}
