package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"metadataflow/internal/graph"
	"metadataflow/internal/journal"
	"metadataflow/internal/plan"
	"metadataflow/internal/spec"
)

// The reference for every test of the vet memo is a server that has not seen
// the document: a fresh one, or any server given the document under bytes it
// has not seen.

// uniqueDoc returns doc followed by 32 spaces and tabs that spell i: the
// same spec to every reader of its content, a different document of the same
// length to the vet memo.
func uniqueDoc(doc string, i int) json.RawMessage {
	pad := make([]byte, 32)
	for b := range pad {
		pad[b] = " \t"[i>>b&1]
	}
	return json.RawMessage(doc + string(pad))
}

// smallNested is nestedSpec at the input size of the serve benchmark's mix.
var smallNested = strings.Replace(nestedSpec, "805306368", "25165824", 1)

// submission is one scripted Submit and the number of loop turns after it.
type submission struct {
	req   JobRequest
	turns int
}

// repeatedMix is a seeded session in which every document is submitted
// twice (the nested one four times, with and without a fault plan), in
// shuffled order, by rotating tenants, with the step loop taking a random
// number of turns in between so that jobs overlap, queue and are refused as
// well as run: healthy explores, a nested one, a job that fails with a
// panic, two documents vetting condemns and one whose allow
// list lets it through.
func repeatedMix(seed int64) (subs []submission, distinct int) {
	rng := rand.New(rand.NewSource(seed))
	type entry struct{ doc, faults string }
	pool := []entry{
		{doc: okSpec}, {doc: otherSpec}, {doc: smallNested},
		{doc: smallNested, faults: keepFaults},
		{doc: boomSpec, faults: boomFaults},
		{doc: dupSpec}, {doc: hugeSpec},
		{doc: strings.Replace(dupSpec, `"name": "dup",`, `"name": "dup", "allow": ["dupbranch"],`, 1)},
	}
	for i := 0; i < 4; i++ {
		pool = append(pool, entry{doc: strings.Replace(okSpec, `"seed": 7`, fmt.Sprintf(`"seed": %d`, 100+rng.Intn(900)), 1)})
	}
	order := rng.Perm(2 * len(pool))
	subs = make([]submission, len(order))
	docs := make(map[string]bool)
	for i, k := range order {
		e := pool[k%len(pool)]
		docs[e.doc] = true
		subs[i] = submission{
			req: JobRequest{
				Tenant: string(rune('a' + i%5)), Priority: rng.Intn(3),
				Spec: json.RawMessage(e.doc), Faults: json.RawMessage(e.faults),
			},
			turns: rng.Intn(25),
		}
	}
	return subs, len(docs)
}

// runScript drives subs through a server whose loop goroutine is not
// running, taking its turns from the test, and returns everything a client
// can read of the session: the answer to every submission, then every job's
// status and progress, the watch stream, /metrics and /series. With cold set
// every document is made unique, so the memo never hits.
func runScript(t *testing.T, s *Server, subs []submission, cold bool) []byte {
	t.Helper()
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for i, sub := range subs {
		req := sub.req
		if cold {
			req.Spec = uniqueDoc(string(req.Spec), i)
		}
		st, err := s.Submit(req)
		var vet *VetError
		switch {
		case errors.As(err, &vet):
			fmt.Fprintf(&out, "submit %d: %v\n", i, err)
			if err := enc.Encode(vet.Findings); err != nil {
				t.Fatal(err)
			}
		case err != nil:
			fmt.Fprintf(&out, "submit %d: %v\n", i, err)
		default:
			if err := enc.Encode(st); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < sub.turns && turn(s); k++ {
		}
	}
	for turn(s) {
	}
	h := s.Handler()
	for _, id := range s.order {
		out.Write(get(t, h, "/jobs/"+id).Body.Bytes())
		out.Write(get(t, h, "/jobs/"+id+"/progress").Body.Bytes())
	}
	for _, path := range []string{"/watch", "/metrics", "/series"} {
		out.Write(get(t, h, path).Body.Bytes())
	}
	return out.Bytes()
}

// scriptServer builds a server for runScript, durable when dir is set.
func scriptServer(t *testing.T, dir string) *Server {
	t.Helper()
	s := newServer(Config{StateDir: dir, JournalNoSync: true})
	if dir != "" {
		if err := s.openState(); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestRepeatEqualsColdServer is the memo's oracle: a server answering
// repeats from its memo says, byte for byte, what a server that vets every
// submission from scratch says — every submission's answer (status, refusal,
// findings), every job's final status and progress, the watch stream,
// /metrics and /series — on a memory-only and on a durable server.
func TestRepeatEqualsColdServer(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			subs, distinct := repeatedMix(seed)
			dirs := []string{"", ""}
			if durable {
				dirs = []string{t.TempDir(), t.TempDir()}
			}
			warm, cold := scriptServer(t, dirs[0]), scriptServer(t, dirs[1])
			got, want := runScript(t, warm, subs, false), runScript(t, cold, subs, true)
			if !bytes.Equal(got, want) {
				t.Fatalf("durable=%v seed %d: the session with repeats differs from the cold one:\n got  %.2000s\n want %.2000s",
					durable, seed, got, want)
			}
			for _, want := range []string{`"state": "done"`, `"state": "failed"`, "plan vetting", "quota"} {
				if !bytes.Contains(got, []byte(want)) {
					t.Errorf("durable=%v seed %d: nothing in the session shows %s", durable, seed, want)
				}
			}
			// A document misses once, whatever became of the submission; on
			// the cold server every submission does.
			if m := warm.Healthz().VetMemo; m.Misses != int64(distinct) || m.Hits != int64(len(subs)-distinct) || m.Entries != distinct {
				t.Errorf("durable=%v seed %d: warm memo %+v, want %d misses and entries in %d lookups", durable, seed, m, distinct, len(subs))
			}
			if m := cold.Healthz().VetMemo; m.Hits != 0 || m.Misses != int64(len(subs)) {
				t.Errorf("durable=%v seed %d: cold memo %+v, want no hit in %d", durable, seed, m, len(subs))
			}
		}
	}
}

// answer is what a client learns from one submission run to its end, with
// the job ID left out so that servers with different histories compare.
type answer struct {
	Err        string
	Findings   []string
	State      string
	JobErr     string
	Selections map[string][]int
	Completion float64
}

func answerOf(t *testing.T, s *Server, req JobRequest) answer {
	t.Helper()
	st, err := s.Submit(req)
	if err != nil {
		a := answer{Err: err.Error()}
		var vet *VetError
		if errors.As(err, &vet) {
			for _, f := range vet.Findings {
				a.Findings = append(a.Findings, f.String())
			}
		}
		return a
	}
	for turn(s) {
	}
	st, err = s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return answer{State: st.State, JobErr: st.Error, Selections: st.Selections, Completion: st.CompletionSec}
}

// TestMetadataIsNotIdentity: the content hash identifies the computation and leaves
// out every name, label and the allow list, so it cannot key anything a
// client observes. Three pairs of documents with equal content hashes — one
// differing in its operator names, one in a branch label, one in its allow
// list — are submitted to one server back to back, and the second of each
// pair gets exactly what a fresh server answers: its own selection keys and
// its own fate under a fault plan that names an operator, its own finding
// text, its own verdict.
func TestMetadataIsNotIdentity(t *testing.T) {
	renamed := strings.NewReplacer(`"name": "e"`, `"name": "pick"`, `"name": "f"`, `"name": "g"`).Replace(okSpec)
	panicF := `{"panics": [{"op": "f", "target": "transform", "times": 1000}]}`
	relabeled := strings.Replace(dupSpec, `"label": "b"`, `"label": "other"`, 1)
	allowed := strings.Replace(dupSpec, `"name": "dup",`, `"name": "dup", "allow": ["dupbranch"],`, 1)
	for _, tc := range []struct {
		name         string
		first, then  string
		faults       string
		differ       func(a, b answer) bool
		whatDiffered string
	}{
		{"operator name", okSpec, renamed, panicF,
			func(a, b answer) bool {
				// Both of the first's branches panic and are quarantined; the
				// second has no operator of that name.
				lost, okA := a.Selections["T4[e/choose]"]
				kept, okB := b.Selections["T4[pick/choose]"]
				return okA && okB && len(lost) == 0 && len(kept) == 1 && len(a.Selections) == 1 && len(b.Selections) == 1
			}, "the selection keys and the fault plan's victims"},
		{"branch label", dupSpec, relabeled, "",
			func(a, b answer) bool {
				return len(a.Findings) == 1 && len(b.Findings) == 1 && a.Findings[0] != b.Findings[0]
			},
			"the finding text"},
		{"allow list", dupSpec, allowed, "",
			func(a, b answer) bool { return len(a.Findings) == 1 && b.State == StateDone },
			"the verdict"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ha, hb := mustHash(t, tc.first), mustHash(t, tc.then)
			if ha != hb {
				t.Fatalf("the pair's content hashes differ (%s, %s): it proves nothing", ha, hb)
			}
			req := func(tenant, doc string) JobRequest {
				return JobRequest{Tenant: tenant, Spec: json.RawMessage(doc), Faults: json.RawMessage(tc.faults)}
			}
			one := newServer(Config{})
			first, then := answerOf(t, one, req("a", tc.first)), answerOf(t, one, req("b", tc.then))
			if want := answerOf(t, newServer(Config{}), req("b", tc.then)); !reflect.DeepEqual(then, want) {
				t.Errorf("after its hash-equal twin the document was answered\n %+v\na fresh server answers\n %+v", then, want)
			}
			if !tc.differ(first, then) {
				t.Errorf("the pair does not differ in %s:\n %+v\n %+v", tc.whatDiffered, first, then)
			}
			// The other order, and each document again: all from the memo now.
			if again := answerOf(t, one, req("c", tc.first)); !reflect.DeepEqual(again, first) {
				t.Errorf("resubmitted, the first document was answered\n %+v\nfirst time\n %+v", again, first)
			}
			if again := answerOf(t, one, req("d", tc.then)); !reflect.DeepEqual(again, then) {
				t.Errorf("resubmitted, the second document was answered\n %+v\nfirst time\n %+v", again, then)
			}
			if m := one.Healthz().VetMemo; m.Hits != 2 || m.Misses != 2 {
				t.Errorf("memo %+v, want 2 hits and 2 misses", m)
			}
		})
	}
}

func mustHash(t *testing.T, doc string) spec.Hash {
	t.Helper()
	sp, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return sp.HashReport().Spec
}

// TestConcurrentSubmitOfOneDocument races two submitters on one document,
// round after round: first on one the server has not seen — both may miss and
// vet it, one entry is kept — then on the same one again, which both find in
// the memo, so that two jobs run side by side on one plan. All four jobs come to the same end. It is in the race gate (make
// race-short) and so does not skip under -short.
func TestConcurrentSubmitOfOneDocument(t *testing.T) {
	s := open(t, Config{})
	defer s.Close()
	const rounds = 16
	bytesWant := 0
	for r := 0; r < rounds; r++ {
		doc := uniqueDoc(okSpec, r)
		ref, err := newServer(Config{}).vet(doc)
		if err != nil {
			t.Fatal(err)
		}
		bytesWant += entrySize(doc, ref)
		var ends []JobStatus
		for _, phase := range []string{"new", "held"} {
			var ids [2]string
			var wg sync.WaitGroup
			for k := range ids {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					st, err := s.Submit(JobRequest{Tenant: string(rune('a' + k)), Spec: doc})
					if err != nil {
						t.Errorf("round %d, %s document, submitter %d: %v", r, phase, k, err)
						return
					}
					ids[k] = st.ID
				}(k)
			}
			wg.Wait()
			s.WaitIdle()
			if t.Failed() {
				return
			}
			for _, id := range ids {
				st, err := s.Job(id)
				if err != nil {
					t.Fatal(err)
				}
				ends = append(ends, st)
			}
		}
		for _, st := range ends {
			if st.State != StateDone || !reflect.DeepEqual(st.Selections, ends[0].Selections) || st.CompletionSec != ends[0].CompletionSec {
				t.Fatalf("round %d: %s ended %+v, %s ended %+v", r, st.ID, st, ends[0].ID, ends[0])
			}
		}
	}
	m := s.Healthz().VetMemo
	if m.Entries != rounds || m.Bytes != bytesWant || m.Hits+m.Misses != 4*rounds || m.Misses < rounds || m.Misses > 2*rounds {
		t.Errorf("memo %+v after %d rounds of four submissions, want %d entries of %d bytes", m, rounds, rounds, bytesWant)
	}
}

// TestVetMemoEvictsByBytes: the memo is bounded by what its entries retain,
// each priced by entrySize, the least recently used go first, a lookup
// counts as use, an entry over an eighth of the bound is never stored, a
// planned entry is priced by its plan and not by its document's length, and
// the byte count is the sum of what is held — down to zero.
func TestVetMemoEvictsByBytes(t *testing.T) {
	var m vetMemo
	// doc returns document i, whose entry without a plan prices at size.
	doc := func(i, size int) []byte {
		return []byte(fmt.Sprintf("%-*d", size-entryBase, i))
	}
	check := func(when string) {
		t.Helper()
		sum := 0
		for el := m.lru.Front(); el != nil; el = el.Next() {
			e := el.Value.(*memoEntry)
			if e.size != entrySize([]byte(e.doc), e.v) {
				t.Fatalf("%s: an entry booked at %d bytes prices at %d", when, e.size, entrySize([]byte(e.doc), e.v))
			}
			sum += e.size
		}
		if sum != m.bytes || m.lru.Len() != len(m.entries) || m.bytes > vetMemoBytes {
			t.Fatalf("%s: %d bytes booked, %d held in %d list and %d map entries (bound %d)",
				when, m.bytes, sum, m.lru.Len(), len(m.entries), vetMemoBytes)
		}
	}

	m.put(doc(-1, vetMemoMaxEntry+1), &vetted{})
	if m.get(doc(-1, vetMemoMaxEntry+1)) != nil || m.bytes != 0 {
		t.Fatalf("an entry over %d bytes was stored", vetMemoMaxEntry)
	}

	// Eight of the largest storable entries fill the memo exactly.
	vs := make([]*vetted, 10)
	for i := 0; i < 8; i++ {
		vs[i] = &vetted{}
		m.put(doc(i, vetMemoMaxEntry), vs[i])
		check("filling")
	}
	if len(m.entries) != 8 || m.bytes != vetMemoBytes {
		t.Fatalf("%d entries, %d bytes after filling, want 8 and %d", len(m.entries), m.bytes, vetMemoBytes)
	}
	// Use 0, the oldest; the next insertion takes 1 instead, the one after 2.
	if m.get(doc(0, vetMemoMaxEntry)) != vs[0] {
		t.Fatal("document 0 is gone before the memo was over its bound")
	}
	for i := 8; i < 10; i++ {
		vs[i] = &vetted{}
		m.put(doc(i, vetMemoMaxEntry), vs[i])
		check("evicting")
	}
	for i, want := range []bool{true, false, false, true, true, true, true, true, true, true} {
		if got := m.get(doc(i, vetMemoMaxEntry)) == vs[i]; got != want {
			t.Errorf("document %d held: %v, want %v", i, got, want)
		}
	}
	// A second put of a held document changes nothing: the first is kept.
	m.put(doc(9, vetMemoMaxEntry), &vetted{})
	if m.get(doc(9, vetMemoMaxEntry)) != vs[9] {
		t.Error("a second put replaced the entry")
	}
	check("second put")
	// Many small entries push every large one out, and the books follow.
	const small = 4096
	for i := 0; i < 3*vetMemoBytes/small; i++ {
		m.put(doc(100+i, small), &vetted{})
	}
	check("small entries")
	if len(m.entries) != vetMemoBytes/small {
		t.Errorf("%d small entries held, want %d", len(m.entries), vetMemoBytes/small)
	}
	// A planned entry is priced by its plan: it pushes out as many small
	// entries as its price takes, far more than its document's length would.
	nested := []byte(smallNested)
	v, err := newServer(Config{}).vet(nested)
	if err != nil || v.plan == nil {
		t.Fatalf("the nested document vetted to %+v, %v", v, err)
	}
	size := entrySize(nested, v)
	if size < 10*len(nested) {
		t.Errorf("the nested document's entry prices at %d bytes, its document is %d long", size, len(nested))
	}
	m.put(nested, v)
	check("planned entry")
	if want := 1 + (vetMemoBytes-size)/small; len(m.entries) != want {
		t.Errorf("%d entries held beside a planned one of %d bytes, want %d", len(m.entries), size, want)
	}
	m.shrink(0)
	check("emptied")
	if m.bytes != 0 || len(m.entries) != 0 {
		t.Errorf("emptied memo books %d bytes in %d entries", m.bytes, len(m.entries))
	}
}

// planOf reads a job's plan under the lock.
func planOf(s *Server, id string) *graph.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].plan
}

// runOnOnePlan turns the loop until the server is idle and checks that the
// job runs on the plan p it was given before its run started, and that the
// job lets go of it when it retires. It returns the number of runs the job
// started meanwhile, read off the watch log.
func runOnOnePlan(t *testing.T, s *Server, id string, p *graph.Plan) int {
	t.Helper()
	if p == nil {
		t.Fatalf("%s has no plan before its run", id)
	}
	s.mu.Lock()
	from := len(s.watch)
	s.mu.Unlock()
	for turn(s) {
		s.mu.Lock()
		if j := s.jobs[id]; !j.terminal() && j.plan != p {
			t.Errorf("%s holds plan %p, admitted with %p", id, j.plan, p)
		}
		s.mu.Unlock()
	}
	if st, _ := s.Job(id); !terminalState(st.State) {
		t.Fatalf("%s is %s with the server idle", id, st.State)
	}
	if planOf(s, id) != nil {
		t.Errorf("%s still holds its plan after retiring", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	runs := 0
	for _, ev := range s.watch[from:] {
		if ev.Job == id && ev.Kind == "lifecycle" && ev.State == StateRunning {
			runs++
		}
	}
	return runs
}

// TestFailedJobRunsOnceOnThePlanBuiltOnce: a job that fails with a panic is
// compiled and planned once, at admission, runs once on that plan, and is
// not run again.
func TestFailedJobRunsOnceOnThePlanBuiltOnce(t *testing.T) {
	s := newServer(Config{})
	st := submitOK(t, s, "a", boomSpec, boomFaults)
	if got := runOnOnePlan(t, s, st.ID, planOf(s, st.ID)); got != 1 {
		t.Errorf("the panicking job made %d runs, want 1", got)
	}
	if st, _ := s.Job(st.ID); st.State != StateFailed {
		t.Errorf("the panicking job ended %s", st.State)
	}
	if m := s.Healthz().VetMemo; m.Misses != 1 || m.Hits != 0 {
		t.Errorf("memo %+v: the document was looked up once, at Submit", m)
	}
}

// TestRecoveredJobIsPlannedAtRequeue: a durable server is drained with a job
// in mid-run, which checkpoints it, and dies before that job's terminal
// record reaches the journal. The reopened server reads the document of that
// job only — a job whose terminal record survived is restored without its
// spec being parsed — builds its plan once, when it requeues it, and runs it
// to the end the uninterrupted run reached.
func TestRecoveredJobIsPlannedAtRequeue(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), JournalNoSync: true}
	ref := newServer(Config{})
	want := answerOf(t, ref, JobRequest{Tenant: "b", Spec: json.RawMessage(smallNested)})

	s := scriptServer(t, cfg.StateDir)
	done := submitOK(t, s, "a", okSpec, "")
	for turn(s) {
	}
	cut := submitOK(t, s, "b", smallNested, "")
	for i := 0; i < 17; i++ {
		turn(s)
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for turn(s) {
	}
	if st, _ := s.Job(cut.ID); st.State != StateCheckpointed {
		t.Fatalf("the drained job ended %+v, want checkpointed", st)
	}
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	if err := s.jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: the journal ends just before the drained job's terminal
	// record.
	jdir := filepath.Join(cfg.StateDir, "journal")
	recs, err := journal.Replay(jdir)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	if last.Kind != journal.KindTerminal || last.Job != cut.ID || last.State != StateCheckpointed {
		t.Fatalf("the journal ends %s/%s (%s), want the drained job's terminal record", last.Kind, last.Job, last.State)
	}
	if err := os.RemoveAll(jdir); err != nil {
		t.Fatal(err)
	}
	if err := journal.WriteAll(jdir, recs[:len(recs)-1], journal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}

	r := scriptServer(t, cfg.StateDir)
	if m := r.Healthz().VetMemo; m.Misses != 1 || m.Hits != 0 || m.Entries != 1 {
		t.Errorf("memo after replay %+v: one document, the requeued job's, should have been read", m)
	}
	if planOf(r, done.ID) != nil {
		t.Errorf("the restored terminal job was given a plan")
	}
	if got := runOnOnePlan(t, r, cut.ID, planOf(r, cut.ID)); got != 1 {
		t.Errorf("the recovered job made %d runs, want 1", got)
	}
	st, err := r.Job(cut.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := answer{State: st.State, JobErr: st.Error, Selections: st.Selections, Completion: st.CompletionSec}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the recovered job ended\n %+v\nuninterrupted it ends\n %+v", got, want)
	}
	// The blind resubmission finds its job through the content hash, which
	// is what that is for: to the memo it is a new document, the journal
	// having stored the spec compacted.
	if again := submitOK(t, r, "b", smallNested, ""); again.ID != cut.ID {
		t.Errorf("the resubmission was admitted as %s, want the recovered %s", again.ID, cut.ID)
	}
}

// TestAdmissionDoesEachThingOnce counts the work of the admission pipeline
// by what it allocates, against the same machine's count for each step alone
// (P parse, V vet — which normalises, compiles and hashes — H hash, C
// compile of the normalised spec, B plan of the compiled graph, which
// compiling validated, so B is stage derivation alone): a new document costs
// P + V + B and not one step more, on a durable server too, where the hash is
// the one vetting computed; a document seen before costs nothing — no parse,
// no normalisation, no hash, no vet, no compile, no plan: its jobs run on the
// plan the memo keeps. The slack is well under the cheapest step, so a second
// call of any of them shows.
//
// Then, in the source: the step loop's startLocked calls neither Compile nor
// BuildPlan, and a job holds no spec.
func TestAdmissionDoesEachThingOnce(t *testing.T) {
	doc := []byte(smallNested)
	sp, err := spec.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	def := Config{}.withDefaults()
	vetCfg := plan.Config{Workers: def.Workers, MemPerWorker: def.MemPerWorker, TenantQuota: def.TenantQuota}
	// A repeated document allocates nothing, so its slack is small; a new
	// one's is not under the cheapest step alone, B, which is why a second B
	// still shows in it.
	runs, slack, missSlack := 20, 4.0, 8.0
	if raceDetector {
		// The race detector allocates on its own account: its sync.Pool drops
		// what is put back at random. That moves the count of a new document,
		// which parses JSON and hashes, by up to 10 even over 200 runs, and
		// the count of a repeated one not at all. So a new document has a
		// slack of 15 there, which a second parse, vet or hash still exceeds;
		// a second plan (B) on that path is the default build's to catch.
		runs, missSlack = 200, 15
	}
	count := func(f func()) float64 { return testing.AllocsPerRun(runs, f) }
	P := count(func() { _, _ = spec.Parse(doc) })
	V := count(func() { _, _ = plan.Verify(sp, vetCfg) })
	H := count(func() { sp.HashReport() })
	n := sp.Normalized()
	C := count(func() { _, _ = spec.CompileNormalized(n) })
	B := count(func() { _, _ = graph.BuildPlan(g) })
	if least := min(P, H, C, B); least < 2*slack {
		t.Fatalf("the cheapest step allocates %.0f times: the slack of %.0f would hide it", least, slack)
	}
	if least := min(P, V); least < 2*missSlack {
		t.Fatalf("the cheapest step of a new document allocates %.0f times: the slack of %.0f would hide it", least, missSlack)
	}

	admit := func(s *Server, doc []byte) {
		v, err := s.vet(doc)
		if err == nil && v.plan == nil {
			err = errors.New("an accepted document without a plan")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		cfg       Config
		miss, hit float64
	}{
		{"memory", Config{}, P + V + B, 0},
		{"durable", Config{StateDir: t.TempDir()}, P + V + B, 0},
	} {
		s := newServer(tc.cfg) // the pipeline reads the configuration only
		// The new documents are made beforehand, so that what is counted is
		// admission's and not the test's: one per call, the warm-up's too.
		docs := make([][]byte, runs+1)
		for i := range docs {
			docs[i] = uniqueDoc(smallNested, i+1)
		}
		i := 0
		miss := count(func() { admit(s, docs[i]); i++ })
		hit := count(func() { admit(s, doc) })
		t.Logf("%s: miss %.0f (steps %.0f), hit %.0f (steps %.0f)", tc.name, miss, tc.miss, hit, tc.hit)
		if miss < tc.miss-missSlack || miss > tc.miss+missSlack {
			t.Errorf("%s: a new document costs %.0f allocations, its steps once each %.0f", tc.name, miss, tc.miss)
		}
		if hit < tc.hit-slack || hit > tc.hit+slack {
			t.Errorf("%s: a repeated document costs %.0f allocations, want %.0f: a compile alone is %.0f, a plan %.0f", tc.name, hit, tc.hit, C, B)
		}
		if v, _ := s.vet(doc); (v.chains != nil) != (tc.cfg.StateDir != "") || (v.specHash != "") != (tc.cfg.StateDir != "") {
			t.Errorf("%s: holds content hash %q and %d chains", tc.name, v.specHash, len(v.chains))
		}
	}

	fset := token.NewFileSet()
	src, err := parser.ParseFile(fset, "service.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawStart, sawJob bool
	ast.Inspect(src, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Name.Name != "startLocked" {
				return true
			}
			sawStart = true
			ast.Inspect(n.Body, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Compile" || sel.Sel.Name == "BuildPlan") {
					t.Errorf("%s: startLocked calls %s", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				return true
			})
		case *ast.TypeSpec:
			st, ok := n.Type.(*ast.StructType)
			if n.Name.Name != "job" || !ok {
				return true
			}
			sawJob = true
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.Name == "spec" {
						t.Errorf("%s: job has a spec field", fset.Position(name.Pos()))
					}
				}
			}
		}
		return true
	})
	if !sawStart || !sawJob {
		t.Errorf("startLocked found: %v, job struct found: %v", sawStart, sawJob)
	}
}

// TestRepeatAllocatesLess pins the memo's saving where it is made and where
// it is felt. Admission alone — Submit on a server whose loop is not running
// — allocates at most three quarters as often for a repeated document as for
// a new one. Submit + WaitIdle carries the job's own run on both sides, the
// larger part of either, so there the repeat must stay under nine tenths.
func TestRepeatAllocatesLess(t *testing.T) {
	measure := func(s *Server, after func(JobStatus)) (cold, repeat float64) {
		i := 0
		submit := func(doc json.RawMessage) {
			st, err := s.Submit(JobRequest{Tenant: "a", Spec: doc})
			if err != nil {
				t.Fatal(err)
			}
			after(st)
		}
		cold = testing.AllocsPerRun(30, func() { i++; submit(uniqueDoc(smallNested, i)) })
		repeat = testing.AllocsPerRun(30, func() { submit(json.RawMessage(smallNested)) })
		return cold, repeat
	}

	staged := newServer(Config{})
	cold, repeat := measure(staged, func(st JobStatus) {
		// Withdraw the queued job so that the next one is admitted.
		if err := staged.Cancel(st.ID); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("admission alone: new document %.0f allocations, repeated %.0f (%.2f)", cold, repeat, repeat/cold)
	if repeat > 0.75*cold {
		t.Errorf("admission of a repeated document allocates %.0f times, of a new one %.0f: more than 0.75", repeat, cold)
	}

	s := open(t, Config{})
	defer s.Close()
	cold, repeat = measure(s, func(JobStatus) { s.WaitIdle() })
	t.Logf("Submit + WaitIdle: new document %.0f allocations, repeated %.0f (%.2f)", cold, repeat, repeat/cold)
	if repeat > 0.9*cold {
		t.Errorf("a repeated job allocates %.0f times, a new one %.0f: more than 0.9", repeat, cold)
	}
}

// TestHealthzReportsVetMemo: /healthz says what the memo holds — its bytes
// are the entries' price, not the documents' length — and how it is doing;
// /metrics, a deterministic document, does not mention it.
func TestHealthzReportsVetMemo(t *testing.T) {
	s := open(t, Config{})
	defer s.Close()
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec := postJob(t, h, `{"tenant": "a", "spec": `+okSpec+`}`); rec.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, rec.Code, rec.Body)
		}
		s.WaitIdle()
	}
	var doc struct {
		VetMemo *VetMemoHealth `json:"vetMemo"`
	}
	if err := json.Unmarshal(get(t, h, "/healthz").Body.Bytes(), &doc); err != nil || doc.VetMemo == nil {
		t.Fatalf("healthz has no vetMemo: %v", err)
	}
	ref, err := newServer(Config{}).vet([]byte(okSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := *doc.VetMemo, (VetMemoHealth{Entries: 1, Bytes: entrySize([]byte(okSpec), ref), Hits: 2, Misses: 1}); got != want {
		t.Errorf("vetMemo = %+v, want %+v", got, want)
	}
	if m := get(t, h, "/metrics").Body.String(); strings.Contains(strings.ToLower(m), "memo") {
		t.Errorf("/metrics mentions the memo")
	}
}

// TestEntrySizeBoundsRetained: entrySize is an upper bound of what a memo
// entry retains. For every document of examples/specs and
// internal/plan/testdata, accepted or not, and the nested documents of these
// tests, on a memory-only and on a durable server, the heap that k entries of
// the document keep alive — measured after a collection, each entry a
// different document of the same content — is at most k times the entry's
// price.
func TestEntrySizeBoundsRetained(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow memory is not what an entry retains")
	}
	docs := map[string][]byte{"okSpec": []byte(okSpec), "smallNested": []byte(smallNested), "nestedSpec": []byte(nestedSpec)}
	for _, pattern := range []string{"../../examples/specs/*.json", "../plan/testdata/*.json"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			docs[filepath.Base(path)] = doc
		}
	}
	heap := func() int {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int(ms.HeapAlloc)
	}
	const k = 64
	for _, durable := range []bool{false, true} {
		cfg := Config{}
		if durable {
			cfg.StateDir = t.TempDir()
		}
		for name, doc := range docs {
			s := newServer(cfg)
			if _, err := s.vet(uniqueDoc(string(doc), 0)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			variants := make([][]byte, k)
			for i := range variants {
				variants[i] = uniqueDoc(string(doc), i+1)
			}
			before := heap()
			for _, d := range variants {
				if _, err := s.vet(d); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
			retained := (heap() - before) / k
			size := entrySize(variants[0], s.memo.get(variants[0]))
			t.Logf("durable=%v %s: an entry retains %d bytes, priced at %d", durable, name, retained, size)
			if retained > size {
				t.Errorf("durable=%v %s: an entry retains %d bytes, priced at %d", durable, name, retained, size)
			}
		}
	}
}
