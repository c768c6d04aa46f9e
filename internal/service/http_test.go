package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"metadataflow/internal/obs"
	"metadataflow/internal/spec"
)

func postJob(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestHTTPSubmitAndStatus(t *testing.T) {
	s := open(t, Config{})
	defer s.Close()
	h := s.Handler()

	rec := postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("POST /jobs = %d, body %s", rec.Code, rec.Body.String())
	}
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Tenant != "a" {
		t.Fatalf("created status = %+v", st)
	}
	s.WaitIdle()

	rec = get(t, h, "/jobs/"+st.ID)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/{id} = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %q, want done", st.State)
	}
	if len(st.Selections) == 0 {
		t.Fatal("status carries no explain/selections")
	}

	if rec := get(t, h, "/jobs/job-9999"); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d, want 404", rec.Code)
	}
}

// TestWriteJSONReportsEncodeFailure: a value that does not encode (JSON has
// no infinity) answers 500 with an error body, not the status it was meant
// for over an empty body.
func TestWriteJSONReportsEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"score": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("500 body %q not a JSON error (%v)", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

func TestHTTPOverloadStatusCodes(t *testing.T) {
	// No step loop: queued jobs stay queued, so every rejection is
	// deterministic.
	s := newServer(Config{
		Workers:      2,
		MemPerWorker: 1 << 20,
		TenantQuota:  2 << 20,
		QueueCap:     1,
		MaxActive:    1,
	})
	h := s.Handler()

	if rec := postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`); rec.Code != http.StatusCreated {
		t.Fatalf("first submit = %d", rec.Code)
	}
	// Tenant quota exhausted: 429 with Retry-After.
	rec := postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After hint")
	}
	// Queue full for another tenant: also 429 + Retry-After.
	rec = postJob(t, h, `{"tenant": "b", "spec": `+okSpec+`}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After hint")
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("429 body %q not a JSON error (%v)", rec.Body.String(), err)
	}
	go s.loop()
	s.Close()
}

func TestHTTPBadRequests(t *testing.T) {
	s := open(t, Config{})
	defer s.Close()
	h := s.Handler()

	job := `{"tenant": "a", "spec": ` + okSpec + `}`
	cases := map[string]string{
		"not json":      `{`,
		"unknown field": `{"tenant": "a", "sepc": {}}`,
		"no tenant":     `{"spec": ` + okSpec + `}`,
		"bad spec":      `{"tenant": "a", "spec": {"source": {"rows": 0}, "pipeline": []}}`,
		// A body is one request object: nothing but whitespace may follow.
		"second object": job + job + "trailing-garbage",
		"stray brace":   job + "}",
		"stray bracket": job + " ]",
		"garbage":       job + "\nx",
		// A fault plan decodes as strictly as the request around it.
		"misspelled fault plan": `{"tenant": "a", "spec": ` + okSpec + `, "faults": {"crashs": [{"node": 0}]}}`,
		"fault plan retry":      `{"tenant": "a", "spec": ` + okSpec + `, "faults": {"retry": {"maxAttempts": 2000000000}}}`,
	}
	for name, body := range cases {
		if rec := postJob(t, h, body); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", name, rec.Code)
		}
	}

	// An oversized body is rejected up front with 413.
	huge := `{"tenant": "a", "pad": "` + strings.Repeat("x", MaxBodyBytes+1) + `"}`
	if rec := postJob(t, h, huge); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", rec.Code)
	}
	if rec := postJob(t, h, job+strings.Repeat(" ", MaxBodyBytes)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("object with an oversized tail = %d, want 413", rec.Code)
	}
	if rec := postJob(t, h, job+"\n"); rec.Code != http.StatusCreated {
		t.Fatalf("object and a newline = %d, want 201: %s", rec.Code, rec.Body)
	}
}

func TestHTTPCancel(t *testing.T) {
	// No loop: the job stays queued for a deterministic cancel.
	s := newServer(Config{})
	h := s.Handler()
	rec := postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`)
	var st JobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}

	del := httptest.NewRequest("DELETE", "/jobs/"+st.ID, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, del)
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state after cancel = %q", st.State)
	}

	// Terminal: 409. Unknown: 404.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+st.ID, nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("cancel terminal = %d, want 409", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/job-9999", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", rec.Code)
	}
	go s.loop()
	s.Close()
}

func TestHTTPMetricsAndHealthz(t *testing.T) {
	s := open(t, Config{})
	h := s.Handler()
	postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`)
	s.WaitIdle()

	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != obs.SnapshotSchema {
		t.Fatalf("metrics schema = %q", snap.Schema)
	}
	if v, ok := snap.CounterValue("service.jobs_done"); !ok || v != 1 {
		t.Fatalf("service.jobs_done = %d, want 1", v)
	}

	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /healthz = %d", rec.Code)
	}
	var hl Health
	if err := json.Unmarshal(rec.Body.Bytes(), &hl); err != nil {
		t.Fatal(err)
	}
	if hl.State != "ok" {
		t.Fatalf("health state = %q, want ok", hl.State)
	}

	s.Close()
	rec = get(t, h, "/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &hl); err != nil {
		t.Fatal(err)
	}
	if hl.State != "draining" || !hl.Drained {
		t.Fatalf("health after close = %+v, want draining+drained", hl)
	}
	// Submissions after shutdown: 503.
	if rec := postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after close = %d, want 503", rec.Code)
	}
}

// TestHTTPMetricsBytesStableAcrossReads pins that reading /metrics twice at
// quiescence returns identical bytes (the endpoint is a pure function of
// service state).
func TestHTTPMetricsBytesStableAcrossReads(t *testing.T) {
	s := open(t, Config{})
	defer s.Close()
	h := s.Handler()
	postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`)
	s.WaitIdle()
	a := get(t, h, "/metrics").Body.Bytes()
	b := get(t, h, "/metrics").Body.Bytes()
	if !bytes.Equal(a, b) {
		t.Fatalf("metrics changed between reads at quiescence:\n%s\nvs\n%s", a, b)
	}
}

// nestedDoc returns a document of levels explores, each of width branches
// and each in the body of the one before it, after an affine op.
func nestedDoc(levels, width int) []byte {
	step := `{"op": {"name": "leaf", "fn": "abs"}}`
	for l := levels; l >= 1; l-- {
		var branches strings.Builder
		for b := range width {
			if b > 0 {
				branches.WriteString(", ")
			}
			fmt.Fprintf(&branches, `{"label": "a=%d", "params": {"a": %d}}`, b, b+1)
		}
		step = fmt.Sprintf(`{"explore": {"name": "level%d", "branches": [%s],
  "body": [{"op": {"name": "scale%d", "fn": "affine", "paramKey": "a"}}, %s],
  "choose": {"evaluator": "size", "selector": {"kind": "max"}}}}`, l, branches.String(), l, step)
	}
	return []byte(`{"source": {"rows": 100, "partitions": 2}, "pipeline": [` + step + `]}`)
}

// A document that would compile to 20 million operators, six nested
// 16-wide explores in 4 KB, is refused before anything is compiled, by
// Submit with a LimitError and over HTTP with a 400 naming the step at
// which the count passes the bound, each for a fixed number of
// allocations. The server's step loop is not started, so a document that
// got through is not run.
func TestOperatorCountRefusedBeforeCompiling(t *testing.T) {
	s := newServer(Config{})
	h := s.Handler()
	doc := nestedDoc(6, 16)
	const step = "pipeline[0].explore.body[1].explore.body[1]"
	var err error
	allocs := testing.AllocsPerRun(5, func() { _, err = s.Submit(JobRequest{Tenant: "a", Spec: doc}) })
	var lim *spec.LimitError
	if !errors.As(err, &lim) || lim.Path != step {
		t.Fatalf("Submit: %v, want a LimitError at %s", err, step)
	}
	body := `{"tenant": "a", "spec": ` + string(doc) + `}`
	var rec *httptest.ResponseRecorder
	httpAllocs := testing.AllocsPerRun(5, func() { rec = postJob(t, h, body) })
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), step) {
		t.Fatalf("POST /jobs: %d %s, want a 400 naming %s", rec.Code, rec.Body, step)
	}
	t.Logf("refusing it took %v allocations in Submit, %v over HTTP", allocs, httpAllocs)
	if allocs > 1200 || httpAllocs > 1400 {
		t.Errorf("refusing it took %v allocations in Submit (want at most 1200), %v over HTTP (want at most 1400)", allocs, httpAllocs)
	}
	if len(s.jobs) != 0 {
		t.Errorf("%d refused submissions were admitted", len(s.jobs))
	}
}

// flatDoc returns a document of one explore of branches branches, each a
// body of ops wide operators, closed by a max choose.
func flatDoc(branches, ops int) []byte {
	body := strings.Repeat(`{"op": {"name": "w", "fn": "standardize"}}, `, ops)
	var list strings.Builder
	for b := range branches {
		if b > 0 {
			list.WriteString(", ")
		}
		fmt.Fprintf(&list, `{"label": "b%d"}`, b)
	}
	return []byte(fmt.Sprintf(`{"source": {"rows": 8}, "pipeline": [{"explore": {"name": "e", "branches": [%s],
  "body": [%s], "choose": {"selector": {"kind": "max"}}}}]}`, list.String(), strings.TrimSuffix(body, ", ")))
}

// A document within the operator bound but past the stage bound (3 100
// branches of four wide operators) or the leaf branch bound (5 000
// branches) is refused by Submit with a LimitError on that count, and over
// HTTP with a 400 naming it; nothing is admitted.
func TestStageAndLeafCountsRefused(t *testing.T) {
	s := newServer(Config{})
	h := s.Handler()
	for _, tc := range []struct {
		doc   []byte
		field string
	}{{flatDoc(3100, 4), "stages"}, {flatDoc(5000, 1), "leaf branches"}} {
		_, err := s.Submit(JobRequest{Tenant: "a", Spec: tc.doc})
		var lim *spec.LimitError
		if !errors.As(err, &lim) || lim.Field != tc.field || lim.Path != "pipeline[0]" {
			t.Fatalf("Submit: %v, want a LimitError on %s at pipeline[0]", err, tc.field)
		}
		rec := postJob(t, h, `{"tenant": "a", "spec": `+string(tc.doc)+`}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.field) {
			t.Fatalf("POST /jobs: %d %s, want a 400 naming the %s", rec.Code, rec.Body, tc.field)
		}
	}
	if len(s.jobs) != 0 {
		t.Errorf("%d refused submissions were admitted", len(s.jobs))
	}
}

// A spec whose source is too large to generate is a 400 that names the
// field, refused for the cost of reading it. The server's step loop is not
// started, so a document that got through is not run.
func TestHTTPRefusesOversizedSources(t *testing.T) {
	doc, err := os.ReadFile("../../examples/specs/outlier.json")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(Config{})
	h := s.Handler()
	for _, tc := range []struct{ old, new, field string }{
		{`"partitions": 32`, `"partitions": 200000000`, "source.partitions"},
		{`"rows": 20000`, `"rows": 2000000000`, "source.rows"},
	} {
		body := `{"tenant": "a", "spec": ` + strings.Replace(string(doc), tc.old, tc.new, 1) + `}`
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := postJob(t, h, body)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.field) {
			t.Fatalf("%s: %d %s, want a 400 naming the field", tc.field, rec.Code, rec.Body)
		}
		if b := after.TotalAlloc - before.TotalAlloc; b > 1<<20 {
			t.Errorf("%s: refusing the submission allocated %d bytes", tc.field, b)
		}
	}
	if len(s.jobs) != 0 {
		t.Errorf("%d refused submissions were admitted", len(s.jobs))
	}
}
