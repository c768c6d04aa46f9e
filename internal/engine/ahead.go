package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"metadataflow/internal/dataset"
	"metadataflow/internal/graph"
)

// This file computes stages ahead of their pick. The branches of an explore
// are independent (Def. 3.2) and the virtual clock already charges them to
// the cluster's workers in parallel; here their host work — a stage's
// operator functions — overlaps too. Everything that decides virtual time
// stays on the step goroutine, in the order it always had: a result computed
// ahead is only ever adopted by execStage when the scheduler picks its stage,
// and it charges, stores, registers and consults the fault injector as if it
// had just computed the result itself.
//
// Goroutines that compute ahead read the plan and the settled datasets they
// are handed; of the Run they touch nothing but its aheadRun, under its
// mutex.

// aheadMinRows is the gate on handing a stage to another goroutine: its
// inputs hold at least this many rows, or its chain carries a FixedCost, the
// cost model's marker for work that does not scale with the rows (a dnn
// training stage holds one row and takes 1.6-1.9 ms). Measured on the
// benchmark's workloads: every lib-kernel stage that matters holds >= 16 804
// rows and takes >= 290 us, while the stages of lib-engine hold 64-100 rows
// and those of serve-mem 64-256, a few us each, hundreds to a job; handing
// those over as well cost lib-engine 10-13 % of its jobs per second and
// serve-mem 5-9 %. With the gate neither dispatches anything.
const aheadMinRows = 1024

// aheadTokens counts, process-wide, the goroutines computing ahead: at most
// GOMAXPROCS-1 at a time, whatever the number of runs being stepped (the
// service steps many). On one processor there is no token and every stage
// is computed where it is picked.
var aheadTokens atomic.Int32

func acquireAheadToken() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		n := aheadTokens.Load()
		if n >= limit {
			return false
		}
		if aheadTokens.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// chainResult is the host work of one stage: the output of every operator of
// the chain that returned one, and what the next operator returned instead.
type chainResult struct {
	// outs[i] is the output of operator i of the chain; err is the error or
	// captured panic of operator len(outs), nil when there was none.
	outs []*dataset.Dataset
	err  error
	buf  [2]*dataset.Dataset // backing of outs for the usual short chain
	one  [1]*dataset.Dataset // the input list of every operator after the first

	// ahead marks a result computed before its stage was picked.
	ahead bool
}

// computeChain applies the stage's operators over ins, from the first one
// res holds no output of, until one fails or returns nothing. It is the one
// place operator functions are called: by the step goroutine for the stage
// it picked (and again, from the operator that failed, for a retry), or by
// whoever claimed the stage ahead of its pick.
func computeChain(st *graph.Stage, ins []*dataset.Dataset, res *chainResult) {
	if res.outs == nil {
		res.outs = res.buf[:0]
	}
	res.err = nil
	for i := len(res.outs); i < len(st.Ops); i++ {
		in := ins
		if i > 0 {
			res.one[0] = res.outs[i-1]
			in = res.one[:]
		}
		out, err := applyTransform(st.Ops[i], in)
		if err != nil {
			res.err = err
			return
		}
		if out != nil && i == len(st.Ops)-1 && slices.Contains(ins, out) {
			// An operator may return one of its inputs as it is. As the stage's
			// output it needs an identity of its own: registered under the
			// input's, its partitions would be stored and, once the input's last
			// consumer — this stage — is counted off, discarded with it.
			out = out.Alias(out.Name)
		}
		res.outs = append(res.outs, out)
		if out == nil {
			return // execStage reports it
		}
	}
}

// applyTransform calls one operator function, converting a panic into
// opPanicError.
func applyTransform(op *graph.Operator, in []*dataset.Dataset) (out *dataset.Dataset, err error) {
	defer func() {
		if v := recover(); v != nil {
			out, err = nil, &opPanicError{op: op.Name, val: v}
		}
	}()
	return op.Transform(in)
}

// holds reports whether the result has what operator i of the chain
// produced: its output, or its failure not yet handed over.
func (c *chainResult) holds(i int) bool {
	return i < len(c.outs) || (i == len(c.outs) && c.err != nil)
}

// take hands over what operator i produced. A failure is handed over once:
// the retry that follows finds the result not holding it, and recomputes.
func (c *chainResult) take(i int) (*dataset.Dataset, error) {
	if i < len(c.outs) {
		return c.outs[i], nil
	}
	err := c.err
	c.err = nil
	return nil, err
}

// release drops the datasets the result holds.
func (c *chainResult) release() {
	clear(c.buf[:])
	c.outs, c.err, c.one[0] = nil, nil, nil
}

// aheadSlot is the state of one stage that passed the gate.
type aheadSlot struct {
	state   aheadState
	dropped bool               // settled without executing: whatever is computed is discarded
	ins     []*dataset.Dataset // of an idle stage: what its predecessors registered
	res     chainResult
}

type aheadState uint8

const (
	aheadNone    aheadState = iota // not offered: computed where it is picked
	aheadIdle                      // ready and past the gate, nobody computing it
	aheadClaimed                   // somebody is computing it; res is theirs
	aheadDone                      // res is complete, or the step goroutine's own
)

// aheadRun is a run's compute-ahead state, allocated when its first stage
// passes the gate. mu guards all of it but the results: a claimed slot's res
// belongs to the claimant until it publishes the slot as done, a done
// slot's to the step goroutine.
type aheadRun struct {
	mu    sync.Mutex
	cond  sync.Cond // a slot left aheadClaimed
	slots []aheadSlot
	idle  int // slots in aheadIdle
	// queue holds the stages to compute next, in the order the policy would
	// pick them as of the last pick; entries that are no longer idle are
	// skipped. It reaches one ready stage per processor past the pick and no
	// further (see dispatchAhead), which bounds the results waiting to be
	// adopted.
	queue   []*graph.Stage
	head    int  // queue[head:] is still to be claimed
	stopped bool // the run is over: nobody claims another stage
	wg      sync.WaitGroup
}

// worthAhead is the gate (see aheadMinRows) on a stage whose inputs hold rows
// rows.
func worthAhead(st *graph.Stage, rows int) bool {
	if rows >= aheadMinRows {
		return true
	}
	for _, op := range st.Ops {
		if op.FixedCost > 0 {
			return true
		}
	}
	return false
}

// offerAhead is called when st joins the ready list, its inputs settled. A
// stage that passes the gate becomes idle. The inputs are captured here, on
// the step goroutine: the stageOut slots they are read from are cleared when
// the datasets are discarded.
func (r *Run) offerAhead(st *graph.Stage) {
	if r.look == nil || st.IsChoose() || st.IsExplore() {
		return
	}
	pres := r.plan.Pre(st)
	if len(pres) == 0 {
		return // a source stage: nothing to gate on, and nobody to overlap with
	}
	rows := 0
	for _, pre := range pres {
		d := r.stageOut[pre.ID]
		if d == nil {
			return // a pruned input: execStage fails the run
		}
		rows += d.NumRows()
	}
	if !worthAhead(st, rows) {
		return
	}
	a := r.ahead
	if a == nil {
		a = &aheadRun{slots: make([]aheadSlot, len(r.plan.Stages))}
		a.cond.L = &a.mu
		r.ahead = a
	}
	ins := r.inputs(make([]*dataset.Dataset, 0, len(pres)), st) // the claimant's to keep: not scratch
	a.mu.Lock()
	if s := &a.slots[st.ID]; s.state == aheadNone {
		s.state, s.ins = aheadIdle, ins
		a.idle++
	}
	a.mu.Unlock()
}

// dispatchAhead runs after every pick, before the picked stage executes: it
// queues the idle stages in the order the policy would pick them and starts
// a goroutine per free token to compute them.
func (r *Run) dispatchAhead() {
	a := r.ahead
	if a == nil {
		return
	}
	a.mu.Lock()
	idle := a.idle
	a.mu.Unlock()
	if idle == 0 {
		return // whatever the queue still lists is no longer idle
	}
	// The queue looks one ready stage per processor past the pick: the step
	// goroutine picks in the same order and the window moves with it. What
	// looking further buys is paid in memory held ahead: at two stages per
	// processor lib-kernel read 74-79 jobs/s against 65-72 (the kde job's
	// stages cost 0.1-1.2 ms, and a helper out of queue idles while the step
	// goroutine computes a long one) and its peak RSS 20.6-25.9 MiB against
	// 18.8-19.5, the parent's 17.2-24.4. The policy ranks outside the lock: a
	// hint may sort.
	order := r.look.Lookahead(r.ready)
	if window := runtime.GOMAXPROCS(0); len(order) > window {
		order = order[:window]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.queue, a.head = a.queue[:0], 0
	for _, st := range order {
		if a.slots[st.ID].state == aheadIdle {
			a.queue = append(a.queue, st)
		}
	}
	for n := len(a.queue); n > 0 && acquireAheadToken(); n-- {
		a.wg.Add(1)
		go a.work()
	}
}

// work is the body of a dispatched goroutine: it computes the queue's next
// idle stage until the queue is empty. A goroutine that exited after one
// stage left its processor idle until the next pick: dnn read 1.4x that way,
// 1.86x with goroutines that go on.
func (a *aheadRun) work() {
	defer a.wg.Done()
	defer aheadTokens.Add(-1)
	for a.computeNext() {
	}
}

// computeNext claims the first stage of the queue that is still idle and
// computes its chain; false when there is none to claim.
func (a *aheadRun) computeNext() bool {
	st, ins := a.claimNext()
	if st == nil {
		return false
	}
	res := &a.slots[st.ID].res
	res.ahead = true
	computeChain(st, ins, res)
	a.publish(st)
	return true
}

// claimNext claims the first stage of the queue that is still idle.
func (a *aheadRun) claimNext() (*graph.Stage, []*dataset.Dataset) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.head < len(a.queue) && !a.stopped {
		st := a.queue[a.head]
		a.head++
		if s := &a.slots[st.ID]; s.state == aheadIdle {
			s.state = aheadClaimed
			a.idle--
			return st, s.ins
		}
	}
	return nil, nil
}

// publish ends the claim on st: its result becomes the step goroutine's to
// adopt, or is discarded if the stage settled meanwhile.
func (a *aheadRun) publish(st *graph.Stage) {
	a.mu.Lock()
	s := &a.slots[st.ID]
	s.state, s.ins = aheadDone, nil
	if s.dropped {
		s.res = chainResult{}
	}
	a.cond.Broadcast()
	a.mu.Unlock()
}

// adopt returns the result of st for the step goroutine to adopt, nil if the
// stage never passed the gate; busy reports that somebody is still computing
// it. An idle stage becomes the step goroutine's own, its result empty.
func (a *aheadRun) adopt(st *graph.Stage) (res *chainResult, busy bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := &a.slots[st.ID]
	switch s.state {
	case aheadNone:
		return nil, false
	case aheadClaimed:
		return nil, true
	case aheadIdle:
		s.state, s.ins = aheadDone, nil
		a.idle--
	}
	return &s.res, false
}

// await parks the step goroutine until nobody is computing st.
func (a *aheadRun) await(st *graph.Stage) {
	a.mu.Lock()
	for a.slots[st.ID].state == aheadClaimed {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// resultFor returns the result execStage works from for the stage the
// scheduler just picked: an empty one if nobody claimed the stage ahead of
// its pick (execStage then computes it where it stands, as it always did),
// and otherwise what was computed. While somebody is still computing it the
// step goroutine does not park: it computes the queue's next stage itself,
// and parks only when there is none — parking first would leave one
// goroutine doing all the work, the other waiting on it stage after stage.
func (r *Run) resultFor(st *graph.Stage) *chainResult {
	if a := r.ahead; a != nil {
		for {
			res, busy := a.adopt(st)
			if !busy {
				if res != nil {
					return res
				}
				break
			}
			if !a.computeNext() {
				a.await(st)
			}
		}
	}
	return &r.inline // empty: execStage releases it when it is done
}

// dropAhead discards what was computed ahead for a stage that settles
// without executing (pruned, quarantined).
func (r *Run) dropAhead(st *graph.Stage) {
	a := r.ahead
	if a == nil {
		return
	}
	a.mu.Lock()
	s := &a.slots[st.ID]
	s.dropped, s.ins = true, nil
	switch s.state {
	case aheadIdle:
		s.state = aheadNone
		a.idle--
	case aheadDone:
		s.res = chainResult{}
	}
	a.mu.Unlock()
}

// joinAhead waits for the run's goroutines: each finishes the stage it is
// computing and claims no other. Step calls it before it reports the run
// over, for whatever reason, so that nothing of the run is read on another
// goroutine afterwards (finish boxes the output's partitions) and every
// token the run took is back.
func (r *Run) joinAhead() {
	a := r.ahead
	if a == nil {
		return
	}
	a.mu.Lock()
	a.stopped = true
	a.mu.Unlock()
	a.wg.Wait()
	r.ahead = nil
}
