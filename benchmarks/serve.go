package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"metadataflow/internal/service"
)

const (
	// pollEvery is how long a client waits between two status polls.
	pollEvery = 500 * time.Microsecond
	// jobTimeout fails a job that is not terminal this long after its
	// submission was accepted.
	jobTimeout = 30 * time.Second
	// telemetryEvery makes every so-manieth job of a round also read
	// /metrics and /series, so that the telemetry reads ride beside the
	// writes: once in a serve-durable round, twice in a serve-mem one.
	telemetryEvery = 64
)

// clientCount is the number of closed-loop clients, each with one
// connection: callers of the service wait for their job, and the box has
// two cores.
func clientCount() int { return min(2, runtime.NumCPU()) }

// serveRound is what a serve round leaves behind for the per-layer report
// and the durable re-open check.
type serveRound struct {
	stateDir string            // "" on a memory-only server
	states   map[string]string // job ID -> terminal state the client saw
	rejected int               // submissions answered with anything but 201
}

// serviceConfig is the configuration every serve round boots: the service
// defaults, made durable by a state directory.
func serviceConfig(stateDir string) service.Config {
	return service.Config{StateDir: stateDir}
}

// roundStateDir returns the state directory of round r ("" when the
// workload is memory-only), creating it.
func (b *bench) roundStateDir(r int) (string, error) {
	if !b.w.durable {
		return "", nil
	}
	name := fmt.Sprintf("round-%d", r)
	if r < 0 {
		name = "warm-up"
	}
	dir := filepath.Join(b.stateDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// serveRound boots a fresh server behind loopback HTTP and lets the
// closed-loop clients work through the round's jobs. A job's latency runs
// from the start of its POST to the verified terminal status.
func (b *bench) serveRound(r, n int, tr *tracer) roundResult {
	slots := b.w.round(r, n)
	res := roundResult{Jobs: len(slots), LatMS: make([]float64, len(slots))}
	sr := &serveRound{states: make(map[string]string)}
	res.serve = sr

	dir, err := b.roundStateDir(r)
	if err != nil {
		res.fail("state dir: %v", err)
		res.Failed = res.Jobs
		return res
	}
	sr.stateDir = dir
	srv, err := service.Open(serviceConfig(dir))
	if err != nil {
		res.fail("boot: %v", err)
		res.Failed = res.Jobs
		return res
	}
	ts := httptest.NewServer(srv.Handler())

	// Request bodies are the generated inputs; building them is not the
	// service's work, so it happens before the clocks start.
	bodies := make([][]byte, len(slots))
	for i, s := range slots {
		bodies[i], err = json.Marshal(service.JobRequest{
			Tenant:   fmt.Sprintf("tenant-%d", s.tenant),
			Priority: s.priority,
			Spec:     b.w.specs[s.job],
		})
		if err != nil {
			res.fail("request body: %v", err)
		}
	}

	res.CalibMS = ms(calibrate())
	runtime.GC()
	before := readCounters()
	var mu sync.Mutex // guards res and sr while the clients run
	var wg sync.WaitGroup
	clients := clientCount()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := &client{
				base: ts.URL,
				http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
				c:    tr.cursor(),
			}
			defer cl.http.CloseIdleConnections()
			for i := k; i < len(slots); i += clients {
				start := time.Now()
				cl.c.setJob(i)
				root := cl.c.begin("bench", "job")
				st, err := cl.runJob(bodies[i], i%telemetryEvery == telemetryEvery-1)
				if err == nil {
					err = verifyStatus(b.ref[slots[i].job], st)
				}
				cl.c.end(root)
				lat := ms(time.Since(start))
				mu.Lock()
				res.LatMS[i] = lat
				if st.ID != "" {
					sr.states[st.ID] = st.State
				}
				if err != nil {
					res.fail("%s: %v", b.w.jobs[slots[i].job].name, err)
				} else {
					res.VSecSum += st.CompletionSec
				}
				mu.Unlock()
			}
			mu.Lock()
			sr.rejected += cl.rejected
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	res.since(before)
	ts.Close()
	srv.Close()
	return res
}

// client is one closed-loop caller with its own connection.
type client struct {
	base     string
	http     *http.Client
	c        *cursor
	rejected int
}

// do sends one request and returns the status code and the whole body.
func (cl *client) do(layer, name, method, path string, body []byte) (int, []byte, error) {
	id := cl.c.begin(layer, name)
	defer cl.c.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// runJob submits one job and polls it to a terminal state.
func (cl *client) runJob(body []byte, telemetry bool) (service.JobStatus, error) {
	var st service.JobStatus
	code, data, err := cl.do("http", "post_jobs", "POST", "/jobs", body)
	if err != nil {
		return st, err
	}
	if code != http.StatusCreated {
		cl.rejected++
		return st, fmt.Errorf("POST /jobs answered %d: %s", code, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("POST /jobs body: %w", err)
	}
	deadline := time.Now().Add(jobTimeout)
	for !terminal(st.State) {
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", st.ID, st.State, jobTimeout)
		}
		id := cl.c.begin("client", "poll_wait")
		time.Sleep(pollEvery)
		cl.c.end(id)
		code, data, err := cl.do("http", "get_job", "GET", "/jobs/"+st.ID, nil)
		if err != nil {
			return st, err
		}
		if code != http.StatusOK {
			return st, fmt.Errorf("GET /jobs/%s answered %d", st.ID, code)
		}
		st = service.JobStatus{}
		if err := json.Unmarshal(data, &st); err != nil {
			return st, fmt.Errorf("GET /jobs/%s body: %w", st.ID, err)
		}
	}
	if telemetry {
		for _, ep := range []string{"metrics", "series"} {
			code, _, err := cl.do("http", "get_"+ep, "GET", "/"+ep, nil)
			if err != nil {
				return st, err
			}
			if code != http.StatusOK {
				return st, fmt.Errorf("GET /%s answered %d", ep, code)
			}
		}
	}
	return st, nil
}

func terminal(state string) bool {
	switch state {
	case service.StateDone, service.StateFailed, service.StateCanceled, service.StateCheckpointed:
		return true
	}
	return false
}

// verifyStatus checks a terminal status against the library-path reference
// of the same spec: done, books closed, same selections, same virtual
// completion time.
func verifyStatus(want *outcome, st service.JobStatus) error {
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Audit) != 0 {
		return fmt.Errorf("job %s audit: %v", st.ID, st.Audit)
	}
	if !reflect.DeepEqual(normSel(st.Selections), normSel(want.Selections)) {
		return fmt.Errorf("job %s selections %v, reference %v", st.ID, st.Selections, want.Selections)
	}
	if st.CompletionSec != want.VSec {
		return fmt.Errorf("job %s virtual completion %v s, reference %v s", st.ID, st.CompletionSec, want.VSec)
	}
	return nil
}

// reopen boots a server on a finished round's state directory and checks
// that every job the clients saw terminal comes back terminal with the same
// state. It returns the number of jobs that did not, and how long the boot
// (journal replay and state rebuild) took.
func reopen(sr *serveRound) (bad int, boot time.Duration, err error) {
	start := time.Now()
	srv, err := service.Open(serviceConfig(sr.stateDir))
	if err != nil {
		return 0, 0, err
	}
	boot = time.Since(start)
	defer srv.Close()
	for id, state := range sr.states {
		st, err := srv.Job(id)
		if err != nil || st.State != state {
			bad++
		}
	}
	return bad, boot, nil
}
