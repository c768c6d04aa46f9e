package service

import (
	"container/list"
	"sync"

	"metadataflow/internal/graph"
	"metadataflow/internal/plan"
	"metadataflow/internal/spec"
)

// This file is the admission pipeline: what happens to a submitted spec
// document between its arrival and the step loop. It runs once per
// submission, on the submitter's goroutine, outside s.mu:
//
//	vet:       parse → vet → hash  (skipped whole for a document seen before)
//	buildPlan: compile → plan  (every time; see vetMemo)
//
// and the step loop receives a ready *graph.Plan. plan.Verify hands over the
// normalised spec every rule read, the graph its compile rule built from it
// and the hash report its dupbranch rule read, so a new document is parsed,
// normalised, hashed, compiled and planned once each, and a repeated one is
// compiled from the normalised spec the memo keeps. The vet formats the
// paths of the hash report into one string per report and a step path of
// its own walk only for a finding it reports. A job recovered from the
// journal goes through the same two functions when it is requeued
// (recovery.go).

// vetted is everything admission learns from a spec document that does not
// depend on who submitted it or when. It is immutable once built and shared
// by every submission of the same bytes.
type vetted struct {
	// spec is the document's normalised spec (spec.Normalized), the form
	// spec.CompileNormalized reads.
	spec *spec.Spec
	// findings are the plan verifier's surviving diagnostics; non-empty
	// means the document is rejected, every time.
	findings []plan.Finding
	// specHash and chains are what a durable server keeps of the spec's hash
	// report — the whole-graph content hash, its restart dedup key, and one
	// chain-prefix hash per compiled operator, its checkpoint-store keys —
	// and are unset on a memory-only one.
	specHash string
	chains   []spec.Hash
}

// vet returns what admission knows about doc, from the memo when these exact
// bytes have been vetted before. On a miss it also returns the graph vetting
// compiled, if it did, for buildPlan to use.
func (s *Server) vet(doc []byte) (*vetted, *graph.Graph, error) {
	if v := s.memo.get(doc); v != nil {
		return v, nil, nil
	}
	sp, err := spec.Parse(doc)
	if err != nil {
		return nil, nil, err
	}
	res, err := plan.Verify(sp, plan.Config{
		Workers:      s.cfg.Workers,
		MemPerWorker: s.cfg.MemPerWorker,
		TenantQuota:  s.cfg.TenantQuota,
	})
	if err != nil {
		return nil, nil, err
	}
	v := &vetted{spec: res.Normalized, findings: res.Findings}
	if s.cfg.StateDir != "" {
		v.specHash, v.chains = res.Hashes.Spec.String(), res.Hashes.OpChains
	}
	s.memo.put(doc, v)
	return v, res.Graph, nil
}

// buildPlan builds the execution plan of a vetted spec, compiling it first unless
// vetting just did (g). The plan is immutable: the job's run is on it.
func (v *vetted) buildPlan(g *graph.Graph) (*graph.Plan, error) {
	if g == nil {
		var err error
		if g, err = spec.CompileNormalized(v.spec); err != nil {
			return nil, err
		}
	}
	return graph.BuildPlan(g)
}

const (
	// vetMemoBytes bounds the vet memo by the summed length of the documents
	// it holds. What an entry retains — its key, the normalised spec, on a
	// durable server the chain hashes — is a small multiple of the document's
	// length (3× to 4× over nested explores like the serve benchmark's), so
	// the bound caps the memo's heap at a few times this constant whatever
	// clients send.
	vetMemoBytes = 2 << 20
	// vetMemoMaxDoc is the largest document the memo stores. A submission
	// body may be MaxBodyBytes long; without this a handful of giant
	// documents would evict every entry worth keeping.
	vetMemoMaxDoc = vetMemoBytes / 8
)

// vetMemo remembers the vetted form of the spec documents most recently
// submitted, least recently used out first. An exploratory analyst
// resubmits the same documents all day, and a repeat skips parsing,
// normalising, hashing and the whole rule battery.
//
// The key is the document's exact bytes, never its content hash: the hash
// identifies the computation and excludes operator and explore names, branch
// labels and the allow list by construction, while finding messages,
// JobStatus.Selections keys, telemetry stage names and the verdict itself
// depend on them.
//
// The compiled graph and its plan are deliberately not remembered — they
// retain an order of magnitude more than the normalised spec (operator
// closures, adjacency slices, the edge map, stage tables) — so every
// submission compiles and plans.
//
// The memo has its own mutex, held only around the map and the list: never
// across parsing, vetting or compiling, and never together with s.mu.
type vetMemo struct {
	mu      sync.Mutex
	entries map[string]*list.Element // document → element holding a *memoEntry
	lru     list.List                // front = most recently used
	bytes   int
	hits    int64
	misses  int64
}

type memoEntry struct {
	doc string
	v   *vetted
}

// get returns the vetted form of doc, or nil, and counts the hit or miss.
func (m *vetMemo) get(doc []byte) *vetted {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[string(doc)] // no allocation: the compiler elides the conversion in a map index
	if !ok {
		m.misses++
		return nil
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).v
}

// put stores v as the vetted form of doc and evicts from the cold end until
// the memo is within its byte bound again. An oversized document is not
// stored; of two submitters racing on one new document the first is kept.
func (m *vetMemo) put(doc []byte, v *vetted) {
	if len(doc) > vetMemoMaxDoc {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[string(doc)]; ok {
		return
	}
	if m.entries == nil {
		m.entries = make(map[string]*list.Element)
	}
	e := &memoEntry{doc: string(doc), v: v}
	m.entries[e.doc] = m.lru.PushFront(e)
	m.bytes += len(e.doc)
	m.shrink(vetMemoBytes)
}

// shrink evicts least recently used entries until at most limit bytes are
// held. The caller holds m.mu.
func (m *vetMemo) shrink(limit int) {
	for m.bytes > limit {
		cold := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, cold.doc)
		m.bytes -= len(cold.doc)
	}
}

// VetMemoHealth is the vet memo's line of the /healthz document.
type VetMemoHealth struct {
	Entries int   `json:"entries"`
	Bytes   int   `json:"bytes"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

func (m *vetMemo) health() VetMemoHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return VetMemoHealth{Entries: len(m.entries), Bytes: m.bytes, Hits: m.hits, Misses: m.misses}
}
