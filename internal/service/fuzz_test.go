package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"metadataflow/internal/graph"
	"metadataflow/internal/plan"
	"metadataflow/internal/spec"
)

// FuzzSubmit feeds arbitrary bytes, as the spec document of a job request,
// to POST /jobs, and through it to Server.Submit: parsing, the plan
// verifier, the compile (the mdf builder on whatever shape the document
// spells) and planning. It asserts that
//
//   - no input panics or answers 5xx;
//   - a server that has vetted the document before (its vet memo hits)
//     answers exactly what a cold server answers: status, Retry-After and
//     body;
//   - it admits a document exactly when the battery `mdf plan` runs, with
//     the same units and the server's cluster shape, finds nothing in it;
//   - every admitted document compiles and plans, and round-trips through
//     its canonical form: the canonical form reparses, canonicalizes to
//     itself, keeps the content hash, and compiles and plans to as many
//     operators, stages and stage edges.
//
// The corpus starts from the documents the verifier's tests, the examples
// and the spec package's fuzz targets are seeded with.
func FuzzSubmit(f *testing.F) {
	for _, doc := range []string{okSpec, nestedSpec, smallNested} {
		f.Add([]byte(doc))
	}
	for _, pattern := range []string{"../plan/testdata/*.json", "../../examples/specs/*.json", "../spec/testdata/fuzz/*/*"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			if strings.Contains(pattern, "/fuzz/") {
				if data, err = corpusBytes(data); err != nil {
					f.Fatalf("%s: %v", file, err)
				}
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		body := append(append([]byte(`{"tenant":"fuzz","spec":`), doc...), '}')
		warm, cold := newServer(Config{}), newServer(Config{})
		var req JobRequest
		decoded := decodeRequest(bytes.NewReader(body), &req) == nil && len(req.Spec) > 0
		if decoded {
			// What the handler will vet, vetted once before: the warm server's
			// submission is a memo hit whenever the memo kept an entry.
			_, _ = warm.vet(req.Spec)
		}
		primed := warm.Healthz().VetMemo.Entries
		got, want := post(warm, body), post(cold, body)
		if want.Code >= 500 {
			t.Fatalf("answer %d: %s", want.Code, want.Body)
		}
		if got.Code != want.Code || got.Header().Get("Retry-After") != want.Header().Get("Retry-After") ||
			!bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("the memo's answer differs from a cold server's:\n got  %d %s\n want %d %s", got.Code, got.Body, want.Code, want.Body)
		}
		if hits := warm.Healthz().VetMemo.Hits; primed > 0 && hits != 1 {
			t.Fatalf("the warm server kept %d entries but its memo hit %d times", primed, hits)
		}
		if admitted, clean := want.Code == http.StatusCreated, decoded && planClean(cold.cfg, req.Spec); admitted != clean {
			t.Fatalf("answer %d %s, yet mdf plan's battery passing it is %v", want.Code, want.Body, clean)
		}
		if want.Code == http.StatusCreated {
			checkAdmitted(t, req.Spec)
		}
	})
}

// planClean reports whether doc parses and the plan battery, as `mdf plan
// -workers -mem-gb -quota-mb` runs it with cfg's cluster shape, finds
// nothing in it.
func planClean(cfg Config, doc []byte) bool {
	sp, err := spec.Parse(doc)
	if err != nil {
		return false
	}
	res, err := plan.Verify(sp, plan.Config{Workers: cfg.Workers, MemPerWorker: cfg.MemPerWorker, TenantQuota: cfg.TenantQuota})
	return err == nil && len(res.Findings) == 0
}

// post submits body to s's handler and returns the answer.
func post(s *Server, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
	return rec
}

// checkAdmitted holds an admitted document to compiling, planning and its
// canonical form.
func checkAdmitted(t *testing.T, doc []byte) {
	t.Helper()
	sp, err := spec.Parse(doc)
	if err != nil {
		t.Fatalf("admitted document does not parse: %v", err)
	}
	canonical, err := sp.Canonicalize()
	if err != nil {
		t.Fatalf("admitted document does not canonicalize: %v", err)
	}
	again, err := spec.Parse(canonical)
	if err != nil {
		t.Fatalf("canonical form does not reparse: %v\n%s", err, canonical)
	}
	if twice, err := again.Canonicalize(); err != nil || !bytes.Equal(twice, canonical) {
		t.Fatalf("canonical form does not canonicalize to itself (%v):\n%s\n%s", err, canonical, twice)
	}
	if h, h2 := sp.HashReport().Spec, again.HashReport().Spec; h != h2 {
		t.Fatalf("content hash moved across the canonical form: %s -> %s", h, h2)
	}
	var sizes [2][3]int
	for i, s := range []*spec.Spec{sp, again} {
		g, err := s.Compile()
		if err != nil {
			t.Fatalf("admitted document does not compile (form %d): %v", i, err)
		}
		p, err := graph.BuildPlan(g)
		if err != nil {
			t.Fatalf("admitted document does not plan (form %d): %v", i, err)
		}
		sizes[i][0], sizes[i][1], sizes[i][2] = p.Size()
	}
	if sizes[0] != sizes[1] {
		t.Fatalf("operators, stages and edges %v, of the canonical form %v", sizes[0], sizes[1])
	}
}

// corpusBytes returns the one []byte value of a file in the fuzzing engine's
// corpus format ("go test fuzz v1", then []byte("...")).
func corpusBytes(data []byte) ([]byte, error) {
	_, value, _ := strings.Cut(string(data), "\n")
	value = strings.TrimSpace(value)
	value = strings.TrimSuffix(strings.TrimPrefix(value, "[]byte("), ")")
	s, err := strconv.Unquote(value)
	return []byte(s), err
}
