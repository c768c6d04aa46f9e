package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentSubmissionDeterminism is the mdf serve double-run gate: N
// tenant goroutines submit jobs over the HTTP surface while status and
// health polls race the step loop, and the final /metrics document must
// come out byte-identical across two independent runs. Submission order is
// the one thing pinned — a token ring hands the POST slot from goroutine
// to goroutine — because the service contracts on it (job IDs, metrics
// merge order); everything else (scheduling, admission timing, poll
// interleaving) is left to the runtime scheduler, which is exactly what
// the determinism claim has to survive. Runs under `make race-short`.
func TestConcurrentSubmissionDeterminism(t *testing.T) {
	run := func() []byte {
		s := open(t, Config{MaxActive: 2})
		defer s.Close()
		h := s.Handler()

		const tenants = 6
		// tokens[i] gates tenant i's POST; each goroutine passes the slot
		// on as soon as its submission is acknowledged, then keeps polling
		// concurrently with everyone else.
		tokens := make([]chan struct{}, tenants+1)
		for i := range tokens {
			tokens[i] = make(chan struct{}, 1)
		}
		var wg sync.WaitGroup
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-tokens[i]
				spec := okSpec
				if i%3 == 1 {
					spec = longSpec
				}
				body := fmt.Sprintf(`{"tenant": "t%d", "priority": %d, "spec": %s}`, i, i%2, spec)
				rec := postJob(t, h, body)
				if rec.Code != http.StatusCreated {
					t.Errorf("tenant %d: POST /jobs = %d, body %s", i, rec.Code, rec.Body.String())
					tokens[i+1] <- struct{}{}
					return
				}
				var st JobStatus
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Errorf("tenant %d: %v", i, err)
					tokens[i+1] <- struct{}{}
					return
				}
				tokens[i+1] <- struct{}{}
				for k := 0; k < 5; k++ {
					get(t, h, "/jobs/"+st.ID)
					get(t, h, "/healthz")
				}
			}(i)
		}
		tokens[0] <- struct{}{}
		wg.Wait()
		s.WaitIdle()

		rec := get(t, h, "/metrics")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /metrics = %d, body %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatalf("metrics differ across identical runs:\nrun 1:\n%s\nrun 2:\n%s", first, second)
	}
}
