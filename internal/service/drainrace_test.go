package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDrainRacesSubmissionsAndWatchers hammers a draining server the way a
// SIGTERM lands in production: Drain is invoked while goroutines are still
// POSTing jobs and others hold ?follow=1 watch streams open. Under
// `go test -race` this is the concurrency gate for the shutdown path; the
// functional assertions are that every submission either runs to terminal
// or is rejected with the draining status (503), never lost, and that
// every follower's stream terminates with well-formed NDJSON.
func TestDrainRacesSubmissionsAndWatchers(t *testing.T) {
	s := open(t, Config{Workers: 2, MemPerWorker: 4 << 20, TenantQuota: 1 << 40,
		QueueCap: 256, MaxActive: 4, DrainStepBudget: 1 << 20})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	const submitters, jobsEach, followers = 4, 6, 3
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup

	// Follower goroutines hold streaming watch connections across the
	// drain; each line must decode and the stream must end once idle.
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/watch?follow=1")
			if err != nil {
				t.Errorf("watch follow: %v", err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var probe map[string]any
				if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
					t.Errorf("watch stream line %q: %v", sc.Text(), err)
					return
				}
			}
		}()
	}

	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for k := 0; k < jobsEach; k++ {
				body := fmt.Sprintf(`{"tenant": "t%d", "spec": %s}`, tenant, okSpec)
				resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				switch resp.StatusCode {
				case http.StatusAccepted:
					accepted.Add(1)
				case http.StatusServiceUnavailable:
					rejected.Add(1)
				default:
					t.Errorf("submit status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(i)
	}

	// Fire the drain mid-burst, exactly like the SIGTERM handler does.
	snap := s.Drain()
	wg.Wait()

	// Drain returned while submitters were still racing, so late
	// accounting lives in a final snapshot, not the drain-time one.
	if snap == nil {
		t.Fatal("drain snapshot nil")
	}
	s.WaitIdle()
	m := s.Metrics()
	done, _ := m.CounterValue("service.jobs_done")
	ckpt, _ := m.CounterValue("service.jobs_checkpointed")
	drainRej, _ := m.CounterValue("service.jobs_drain_rejected")
	if done+ckpt != accepted.Load() {
		t.Errorf("accepted %d jobs but %d done + %d checkpointed", accepted.Load(), done, ckpt)
	}
	if drainRej != rejected.Load() {
		t.Errorf("client saw %d drain rejections, server counted %d", rejected.Load(), drainRej)
	}
	if accepted.Load()+rejected.Load() != submitters*jobsEach {
		t.Errorf("lost submissions: %d accepted + %d rejected of %d",
			accepted.Load(), rejected.Load(), submitters*jobsEach)
	}
}

// TestSeriesRacesSubmissionsAndSteps reads the service series document
// directly, in a loop on a goroutine of its own, while submitters admit jobs
// and the step loop runs and retires them: every one of those writes to the
// service recorder, under s.mu. Under `go test -race` this is the gate on
// Series reading the recorder under the same lock. It calls Series directly,
// not through GET /series: a keep-alive client has all its requests served
// on one server goroutine, which the detector does not catch racing. The
// functional assertion is that the final document counts every submission.
func TestSeriesRacesSubmissionsAndSteps(t *testing.T) {
	s := open(t, Config{Workers: 2, MemPerWorker: 4 << 20, TenantQuota: 1 << 40,
		QueueCap: 256, MaxActive: 4})
	defer s.Close()

	const submitters, jobsEach = 3, 4
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for {
			select {
			case <-stop:
				return
			default:
				s.Series()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for k := 0; k < jobsEach; k++ {
				req := JobRequest{Tenant: fmt.Sprintf("t%d", tenant), Spec: json.RawMessage(okSpec)}
				if _, err := s.Submit(req); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	s.WaitIdle()
	close(stop)
	<-read

	submitted := 0.0
	for _, sr := range s.Series().Series {
		if strings.HasPrefix(sr.Name, "service.submitted.") {
			for _, p := range sr.Points {
				submitted += p.Value
			}
		}
	}
	if submitted != submitters*jobsEach {
		t.Errorf("series counts %v submissions, want %d", submitted, submitters*jobsEach)
	}
}
