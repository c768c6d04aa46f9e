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
//	vet: parse → vet → hash → plan  (skipped whole for a document seen before)
//
// and the step loop receives a ready *graph.Plan. plan.Verify hands over the
// normalised spec every rule read, the graph its compile rule built from it
// and the hash report its dupbranch rule read, so a new document is parsed,
// normalised, hashed, compiled and planned once each, and a repeated one is
// none of these: every job of one document runs on the one plan the memo
// keeps. The vet formats the paths of the hash report into one string per
// report and a step path of its own walk only for a finding it reports. A
// job recovered from the journal goes through the same vet when it is
// requeued (recovery.go).

// vetted is everything admission learns from a spec document that does not
// depend on who submitted it or when. It is immutable once built and shared
// by every submission of the same bytes.
type vetted struct {
	// plan is the document's execution plan, which every job of the document
	// runs on; nil for a rejected document.
	plan *graph.Plan
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
// bytes have been vetted before. On a miss it plans the graph vetting
// compiled, so that the entry the memo keeps is complete from the start.
func (s *Server) vet(doc []byte) (*vetted, error) {
	if v := s.memo.get(doc); v != nil {
		return v, nil
	}
	sp, err := spec.Parse(doc)
	if err != nil {
		return nil, err
	}
	res, err := plan.Verify(sp, plan.Config{
		Workers:      s.cfg.Workers,
		MemPerWorker: s.cfg.MemPerWorker,
		TenantQuota:  s.cfg.TenantQuota,
	})
	if err != nil {
		return nil, err
	}
	v := &vetted{findings: res.Findings}
	if len(v.findings) == 0 {
		g := res.Graph
		if g == nil {
			// The allow list suppressed the compile rule's finding: the
			// submission fails with the compiler's error, as it always has.
			if g, err = spec.CompileNormalized(res.Normalized); err != nil {
				return nil, err
			}
		}
		if v.plan, err = graph.BuildPlan(g); err != nil {
			return nil, err
		}
	}
	if s.cfg.StateDir != "" {
		v.specHash, v.chains = res.Hashes.Spec.String(), res.Hashes.OpChains
	}
	s.memo.put(doc, v)
	return v, nil
}

const (
	// vetMemoBytes bounds the vet memo by what its entries retain, each
	// priced by entrySize. The serve benchmark's mix of 64 nested documents
	// (3 to 6 outer by 3 to 5 inner branches, 40 to 100 stages) prices at
	// 24.9 to 56.8 KiB an entry, 38.7 KiB on average, so 64 × 38.7 KiB =
	// 2.42 MiB in all (seeds 1 to 3 alike; the entries retain 25 KiB on
	// average). 4 MiB holds that working set with 65 % to spare, and caps
	// the memo's heap whatever clients send.
	vetMemoBytes = 4 << 20
	// vetMemoMaxEntry is the largest entry the memo stores. A submission
	// body may be MaxBodyBytes long and a small document may compile to a
	// large plan; without this a handful of giant ones would evict every
	// entry worth keeping.
	vetMemoMaxEntry = vetMemoBytes / 8
)

// What an entry retains beyond its document, in bytes: the fixed cost of an
// entry (its list element, map slot, memoEntry and vetted), the fixed cost of
// a plan (its headers, the source and its closure), and per operator, stage,
// stage edge and finding; a durable server's chain hashes are 8 bytes each.
// An operator carries its Operator struct, its name, its closures and the
// state they capture, an explore's chooser, and its place in the scopes'
// member lists; a stage its Stage struct and its place in the stage and
// branch tables. TestEntrySizeBoundsRetained measures what entries of the
// spec corpora retain and requires entrySize to be at least that.
const (
	entryBase       = 512
	planBase        = 3584
	bytesPerOp      = 320
	bytesPerStage   = 64
	bytesPerEdge    = 32
	bytesPerFinding = 256
)

// entrySize is what the memo books for the entry of doc: a deterministic
// function of the document's length and its plan's operator, stage and edge
// counts, an upper bound of the bytes the entry retains.
func entrySize(doc []byte, v *vetted) int {
	size := entryBase + len(doc) + bytesPerFinding*len(v.findings) + len(v.specHash) + 8*len(v.chains)
	if v.plan != nil {
		ops, stages, edges := v.plan.Size()
		size += planBase + bytesPerOp*ops + bytesPerStage*stages + bytesPerEdge*edges
	}
	return size
}

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
// An entry holds the document's plan and not its graph: a plan refers to
// the operators and scopes it runs but to none of the graph's adjacency
// lists, which are about a third of a compiled document. The memo is bounded
// by what the entries retain (entrySize), not by the documents' length: a
// plan is some twenty times its nested document.
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
	doc  string
	v    *vetted
	size int // entrySize(doc, v)
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
// the memo is within its byte bound again. An oversized entry is not stored;
// of two submitters racing on one new document the first is kept.
func (m *vetMemo) put(doc []byte, v *vetted) {
	size := entrySize(doc, v)
	if size > vetMemoMaxEntry {
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
	e := &memoEntry{doc: string(doc), v: v, size: size}
	m.entries[e.doc] = m.lru.PushFront(e)
	m.bytes += size
	m.shrink(vetMemoBytes)
}

// shrink evicts least recently used entries until at most limit bytes are
// held. The caller holds m.mu.
func (m *vetMemo) shrink(limit int) {
	for m.bytes > limit {
		cold := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.entries, cold.doc)
		m.bytes -= cold.size
	}
}

// VetMemoHealth is the vet memo's line of the /healthz document.
type VetMemoHealth struct {
	Entries int `json:"entries"`
	// Bytes is the entries' summed entrySize: an upper bound of what the
	// memo retains, not the length of the documents it holds.
	Bytes  int   `json:"bytes"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (m *vetMemo) health() VetMemoHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	return VetMemoHealth{Entries: len(m.entries), Bytes: m.bytes, Hits: m.hits, Misses: m.misses}
}
