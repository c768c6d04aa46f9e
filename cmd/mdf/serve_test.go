package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"metadataflow/internal/service"
)

// TestHTTPServerBoundsSlowClients: the server `mdf serve` listens with must
// cut off a client that never finishes its request headers or body, or
// keeps a connection idle, and has no write timeout that would cut a
// ?follow=1 stream.
func TestHTTPServerBoundsSlowClients(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": srv.ReadHeaderTimeout,
		"ReadTimeout":       srv.ReadTimeout,
		"IdleTimeout":       srv.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive bound", name, d)
		}
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none: it would cut ?follow=1 streams", srv.WriteTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("handler not installed")
	}
}

// serveShortened serves the service's handler on a loopback listener with
// newHTTPServer's settings, after shorten has changed some of them, and
// returns the service and the listener's address.
func serveShortened(t *testing.T, cfg service.Config, shorten func(*http.Server)) (*service.Server, string) {
	t.Helper()
	svc, err := service.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := newHTTPServer(svc.Handler())
	shorten(httpSrv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = httpSrv.Serve(ln)
	}()
	t.Cleanup(func() {
		_ = httpSrv.Close()
		<-done
		svc.Close()
	})
	return svc, ln.Addr().String()
}

// closedWithin reports whether the server closes conn within d, reading and
// discarding what it sends until then.
func closedWithin(t *testing.T, conn net.Conn, d time.Duration) bool {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	_, err := io.Copy(io.Discard, conn)
	var ne net.Error
	return !(errors.As(err, &ne) && ne.Timeout())
}

// A POST whose body stalls is cut at ReadTimeout.
func TestServeCutsStalledBody(t *testing.T) {
	_, addr := serveShortened(t, service.Config{}, func(s *http.Server) {
		s.ReadTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /jobs HTTP/1.1\r\nHost: mdf\r\n"+
		"Content-Type: application/json\r\nContent-Length: 1000\r\n\r\n{\"tenant\": "); err != nil {
		t.Fatal(err)
	}
	if !closedWithin(t, conn, 10*time.Second) {
		t.Fatal("a request whose body stalls still holds its connection after 10s")
	}
}

// A keep-alive connection that sends no next request is closed at
// IdleTimeout, which is shortened here while ReadTimeout, which an unset
// IdleTimeout falls back to, keeps its value.
func TestServeClosesIdleConnection(t *testing.T) {
	_, addr := serveShortened(t, service.Config{}, func(s *http.Server) {
		s.IdleTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: mdf\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("GET /healthz: status %d, close %v; want 200 on a kept-alive connection", resp.StatusCode, resp.Close)
	}
	if !closedWithin(t, conn, 10*time.Second) {
		t.Fatal("an idle keep-alive connection is still open after 10s")
	}
}

// followSpec is a job of a few host milliseconds: wide operators over 20 000
// rows, each a stage of its own.
const followSpec = `{
  "name": "follow",
  "source": {"rows": 20000, "partitions": 4, "virtualBytes": 1048576, "seed": 7},
  "pipeline": [
    {"op": {"name": "w1", "fn": "standardize"}},
    {"op": {"name": "w2", "fn": "standardize"}},
    {"op": {"name": "w3", "fn": "standardize"}},
    {"op": {"name": "w4", "fn": "standardize"}}
  ]
}`

// GET /watch?follow=1 keeps streaming past ReadTimeout, which bounds the
// request, not the response. The stream
// stays open while the service has work, so the test keeps jobs in flight
// for three ReadTimeouts, topping them up as it reads their events; a stream
// cut by the server ends in a transport error. A reader that falls behind
// the step loop can let the service go idle sooner, which ends the stream
// cleanly and proves nothing: that attempt is repeated.
func TestServeFollowOutlivesReadTimeout(t *testing.T) {
	const readTimeout = 100 * time.Millisecond
	svc, addr := serveShortened(t, service.Config{MaxActive: 1}, func(s *http.Server) {
		s.ReadTimeout = readTimeout
	})
	const attempts = 5
	for i := 0; i < attempts; i++ {
		if open := followWhileBusy(t, svc, addr, 3*readTimeout); open > 2*readTimeout {
			return
		}
	}
	t.Fatalf("the service went idle within 2 × ReadTimeout in each of %d attempts: nothing shows the stream outlives ReadTimeout", attempts)
}

// followWhileBusy opens a follow stream on a service it keeps busy for busy,
// reads the stream to its end and returns how long after the request its
// last event came. It fails the test if the stream ends in an error.
func followWhileBusy(t *testing.T, svc *service.Server, addr string, busy time.Duration) time.Duration {
	t.Helper()
	const inFlight = 12
	// The stream replays the log from its start, so only the terminal
	// events of this call's jobs count.
	mine := make(map[string]bool)
	submitted, terminal := 0, 0
	submit := func() {
		// A tenant per job keeps every job inside its tenant's quota; the
		// jobs of an earlier call are done (WaitIdle below).
		tenant := fmt.Sprintf("t%d", submitted)
		st, err := svc.Submit(service.JobRequest{Tenant: tenant, Spec: json.RawMessage(followSpec)})
		if err != nil {
			t.Fatal(err)
		}
		mine[st.ID] = true
		submitted++
	}
	for submitted < inFlight {
		submit()
	}
	start := time.Now()
	resp, err := http.Get("http://" + addr + "/watch?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last time.Time
	sc := bufio.NewScanner(resp.Body)
	sc.Scan() // the header
	for sc.Scan() {
		last = time.Now()
		var ev service.WatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		switch ev.State {
		case service.StateDone, service.StateFailed, service.StateCanceled, service.StateCheckpointed:
			if mine[ev.Job] {
				terminal++
			}
		}
		for last.Sub(start) < busy && submitted-terminal < inFlight {
			submit()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("the follow stream broke %v after the request: %v", time.Since(start), err)
	}
	svc.WaitIdle()
	return last.Sub(start)
}
