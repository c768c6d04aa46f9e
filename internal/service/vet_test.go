package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// dupSpec carries a seeded defect: branches "a" and "b" resolve to the same
// sub-graph, so the plan verifier condemns it with a dupbranch finding.
const dupSpec = `{
  "name": "dup",
  "source": {"rows": 100, "partitions": 2, "virtualBytes": 1048576, "seed": 7},
  "pipeline": [
    {"explore": {
      "name": "e",
      "branches": [{"label": "a", "params": {"limit": 0.5}}, {"label": "b", "params": {"limit": 0.5}}],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }}
  ]
}`

// hugeSpec declares a source whose every partition (8 GiB split 8 ways)
// dwarfs the default service's 256 MiB per-worker budget: the allocator
// would write each one straight to disk, so vetting condemns it.
const hugeSpec = `{
  "name": "huge",
  "source": {"rows": 100, "partitions": 8, "virtualBytes": 8589934592, "seed": 7},
  "pipeline": [{"op": {"name": "id"}}]
}`

// TestSubmitVetRejectsBeforeReservation: a condemned spec is rejected with
// a *VetError carrying the findings, and no quota is ever reserved for the
// tenant — vetting runs strictly before admission accounting.
func TestSubmitVetRejectsBeforeReservation(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	_, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(dupSpec)})
	var vet *VetError
	if !errors.As(err, &vet) {
		t.Fatalf("submit returned %v, want *VetError", err)
	}
	if len(vet.Findings) == 0 || vet.Findings[0].Rule != "dupbranch" {
		t.Fatalf("findings = %+v, want a dupbranch finding", vet.Findings)
	}
	if got := s.quotas.Reserved("a"); got != 0 {
		t.Errorf("rejected submission reserved %d bytes", got)
	}
	if !strings.Contains(vet.Error(), "plan vetting") {
		t.Errorf("error text: %q", vet.Error())
	}

	// A healthy spec from the same tenant is unaffected.
	if _, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(okSpec)}); err != nil {
		t.Fatalf("healthy spec rejected after vet rejection: %v", err)
	}
	s.WaitIdle()

	m := s.Metrics()
	if got, ok := m.CounterValue("service.jobs_vet_rejected"); !ok || got != 1 {
		t.Errorf("jobs_vet_rejected = %d (present=%v), want 1", got, ok)
	}
}

// TestSubmitVetMemoryInfeasible: the memfeasible rule runs against the
// service's own cluster shape and quota, so a spec that could pass under
// mdf plan defaults is still rejected by a smaller service.
func TestSubmitVetMemoryInfeasible(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	_, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(hugeSpec)})
	var vet *VetError
	if !errors.As(err, &vet) {
		t.Fatalf("submit returned %v, want *VetError", err)
	}
	for _, f := range vet.Findings {
		if f.Rule != "memfeasible" {
			t.Errorf("unexpected rule %q: %s", f.Rule, f)
		}
	}
	if len(vet.Findings) != 1 {
		t.Errorf("findings = %+v, want the oversized-partition diagnosis", vet.Findings)
	}
	if got := s.quotas.Reserved("a"); got != 0 {
		t.Errorf("rejected submission reserved %d bytes", got)
	}
}

// TestSubmitVetEscapes: DisableVet admits condemned specs wholesale, and a
// spec-level allow escapes a single rule with the vet otherwise on.
func TestSubmitVetEscapes(t *testing.T) {
	s := New(Config{DisableVet: true})
	if _, err := s.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(dupSpec)}); err != nil {
		t.Fatalf("DisableVet still rejected: %v", err)
	}
	s.Close()

	s2 := New(Config{})
	defer s2.Close()
	allowed := strings.Replace(dupSpec, `"name": "dup",`, `"name": "dup", "allow": ["dupbranch"],`, 1)
	if _, err := s2.Submit(JobRequest{Tenant: "a", Spec: json.RawMessage(allowed)}); err != nil {
		t.Fatalf("allow escape still rejected: %v", err)
	}
}

// TestHTTPVetRejection pins the wire shape: 400 with the error line plus
// one structured finding object per diagnostic.
func TestHTTPVetRejection(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()

	rec := postJob(t, h, `{"tenant": "a", "spec": `+hugeSpec+`}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body)
	}
	var body struct {
		Error    string `json:"error"`
		Findings []struct {
			Path string `json:"path"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad body: %v\n%s", err, rec.Body)
	}
	if !strings.Contains(body.Error, "plan vetting") {
		t.Errorf("error line: %q", body.Error)
	}
	if len(body.Findings) == 0 {
		t.Fatal("no structured findings in 400 body")
	}
	for _, f := range body.Findings {
		if f.Rule != "memfeasible" || f.Path == "" || f.Msg == "" {
			t.Errorf("malformed finding: %+v", f)
		}
	}
	if got := s.quotas.Reserved("a"); got != 0 {
		t.Errorf("rejected submission reserved %d bytes", got)
	}
}
