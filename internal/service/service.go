// Package service is the multi-tenant MDF job service: a long-lived daemon
// that admits declarative job specs (internal/spec), runs many simulated
// MDF jobs concurrently under per-tenant memory quotas, and degrades
// gracefully under overload, repeated failure and shutdown.
//
// The robustness machinery is deliberately clock-free. The only goroutine
// that touches engine state is the step loop, every queue decision is made
// by the deterministic cross-job scheduler, deadlines are virtual-time
// budgets checked at scheduling boundaries, priority aging is counted in
// pop decisions and quarantine cooldown in job completions — so a fixed
// submission sequence always produces the same admissions, the same retry
// and quarantine decisions, and byte-identical aggregated metrics, which is
// what the service tests pin.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/journal"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/plan"
	"metadataflow/internal/scheduler"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
)

// Config parameterises the service. Zero fields take defaults.
type Config struct {
	// Workers and MemPerWorker size the per-job simulated cluster. Every
	// job runs on its own cluster instance so one tenant's fault plan can
	// never degrade another tenant's nodes; contention is modelled by
	// MaxActive and the tenant quotas instead.
	Workers      int
	MemPerWorker sim.Bytes
	// TenantQuota caps the summed simulated memory footprint
	// (Workers × MemPerWorker per job) of a tenant's queued and running
	// jobs. Default: room for two jobs.
	TenantQuota sim.Bytes
	// QueueCap bounds the admission queue; submissions beyond it are shed
	// with ErrQueueFull (HTTP 429).
	QueueCap int
	// MaxActive bounds concurrently running jobs.
	MaxActive int
	// DeadlineSec is the default per-job virtual deadline in simulated
	// seconds; 0 means no deadline. A request may override it.
	DeadlineSec float64
	// Retry bounds service-level re-admission of jobs that failed with an
	// operator panic; zero fields take faults defaults.
	Retry faults.RetryPolicy
	// QuarantineStrikes is the number of panic-failed attempts after which
	// a tenant is quarantined (circuit broken).
	QuarantineStrikes int
	// QuarantineCooldownJobs is how many further job completions (any
	// tenant) a quarantine lasts; measured in completions, not seconds, so
	// it is deterministic.
	QuarantineCooldownJobs int
	// DrainStepBudget is how many more engine steps each active job may
	// take once draining starts before it is canceled and checkpointed.
	DrainStepBudget int
	// DisableVet turns off plan vetting at admission. By default every
	// submitted spec runs the internal/plan rule battery — against this
	// config's cluster shape and tenant quota — and findings reject the
	// submission with a *VetError (HTTP 400) before any quota is reserved.
	DisableVet bool
	// StateDir, when non-empty, makes the service crash-consistent: a
	// write-ahead journal of job lifecycle records under StateDir/journal
	// and a content-addressed durable checkpoint store under
	// StateDir/ckpt. Open replays the journal on boot — re-reserving
	// tenant quotas, restoring terminal jobs verbatim, and re-admitting
	// incomplete jobs idempotently (recovery.go). New ignores this field;
	// use Open.
	StateDir string
	// JournalNoSync skips the fsync after each journal append. The
	// crash-restart harness sets it because its crashes are materialised
	// from replayed records, not real process kills; production keeps the
	// default (sync every record).
	JournalNoSync bool
}

const (
	// ageEvery is the cross-job priority-aging period in pop decisions
	// (scheduler.CrossJobQueue).
	ageEvery = 4
	// watchBucketSec is the virtual-time bucket width of the telemetry
	// series behind /watch and /series.
	watchBucketSec = obs.DefaultBucketSec
)

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MemPerWorker <= 0 {
		c.MemPerWorker = 256 << 20
	}
	if c.TenantQuota <= 0 {
		c.TenantQuota = 2 * sim.Bytes(c.Workers) * c.MemPerWorker
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	c.Retry = c.Retry.WithDefaults()
	if c.QuarantineStrikes <= 0 {
		c.QuarantineStrikes = 3
	}
	if c.QuarantineCooldownJobs <= 0 {
		c.QuarantineCooldownJobs = 8
	}
	if c.DrainStepBudget <= 0 {
		c.DrainStepBudget = 4
	}
	return c
}

// JobRequest is one job submission.
type JobRequest struct {
	// Tenant names the submitting tenant; required.
	Tenant string `json:"tenant"`
	// Priority orders admission; smaller is more urgent.
	Priority int `json:"priority"`
	// DeadlineSec overrides the service's default virtual deadline;
	// negative explicitly disables it.
	DeadlineSec float64 `json:"deadlineSec,omitempty"`
	// Spec is the MDF job document (internal/spec schema).
	Spec json.RawMessage `json:"spec"`
	// Faults is an optional deterministic fault plan injected into the
	// job's private cluster (internal/faults schema).
	Faults json.RawMessage `json:"faults,omitempty"`
}

// Job states.
const (
	StateQueued       = "queued"
	StateRunning      = "running"
	StateDone         = "done"
	StateFailed       = "failed"
	StateCanceled     = "canceled"
	StateCheckpointed = "checkpointed"
)

// Sentinel errors mapped to HTTP statuses by the handler.
var (
	// ErrQueueFull sheds a submission when the admission queue is full.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("service: draining, not admitting jobs")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrTerminal rejects canceling a job that already finished.
	ErrTerminal = errors.New("service: job already terminal")
)

// QuarantineError rejects a submission from a quarantined tenant.
type QuarantineError struct {
	// Tenant is the quarantined tenant; CooldownJobs is how many job
	// completions remain until the quarantine lifts.
	Tenant       string
	CooldownJobs int
}

// Error implements the error interface.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("service: tenant %q quarantined for %d more job completions", e.Tenant, e.CooldownJobs)
}

// VetError rejects a submission whose spec failed plan vetting (HTTP 400
// with the findings as structured diagnostics). The job was never admitted
// and no quota was reserved.
type VetError struct {
	// Findings are the surviving plan-verifier diagnostics. Read-only: every
	// rejection of the same document shares them.
	Findings []plan.Finding
}

// Error implements the error interface.
func (e *VetError) Error() string {
	msg := fmt.Sprintf("service: spec rejected by plan vetting: %d finding(s)", len(e.Findings))
	if len(e.Findings) > 0 {
		msg += ": " + e.Findings[0].String()
	}
	return msg
}

// RequestError marks a malformed submission (HTTP 400).
type RequestError struct{ Err error }

// Error implements the error interface.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying cause.
func (e *RequestError) Unwrap() error { return e.Err }

// Cancellation causes threaded through engine.Options.Context so the step
// loop can tell why a run stopped.
var (
	errDeadline     = errors.New("virtual deadline exceeded")
	errDrainCancel  = errors.New("canceled by drain")
	errClientCancel = errors.New("canceled by client")
)

// job is the service-side record of one submission.
type job struct {
	id       string
	tenant   string
	priority int
	deadline sim.VTime // 0 = none
	// plan is the job's immutable execution plan, built at admission (or at
	// requeue after a restart) and shared by every attempt; dropped, with
	// chains, when the job retires.
	plan    *graph.Plan
	fplan   *faults.Plan
	reserve sim.Bytes

	state    string
	attempts int
	backoff  float64 // accumulated virtual retry backoff, seconds
	err      error

	// chains and specHash are populated only on servers with a StateDir:
	// chains maps compiled-operator IDs to spec chain-prefix hashes (the
	// checkpoint-store keys); specHash is the spec's content hash, the
	// restart dedup key. retries, sheds, strikes and deadlineHit are what
	// the job has been charged so far; the terminal journal record carries
	// them, so a replayed terminal job books exactly what the live one
	// did. retries is also where /metrics reads jobs_retried from.
	chains      []spec.Hash
	specHash    string
	retries     int
	sheds       int
	strikes     int
	deadlineHit bool

	// Running state, owned by the step loop. rec is the job's private
	// telemetry recorder, installed as the run's probe on every attempt.
	run        *engine.Run
	rec        *obs.Recorder
	cancel     context.CancelCauseFunc
	admitSeq   int
	drainSteps int

	// progress is the job's last engine.Progress view, one buffer for the
	// job's life. Only the step loop writes it — in place, under s.mu, when
	// a run starts, after each step and at retirement — so a reader holds
	// s.mu and copies (Server.Progress); it never hands the buffer out and
	// never touches the run.
	progress engine.Progress

	// Terminal state.
	end          sim.VTime
	snapshot     *obs.Snapshot
	checkpointed int
	auditLineage []string
	auditBooks   []string
	selections   map[string][]int
}

func (j *job) terminal() bool { return terminalState(j.state) }

func terminalState(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateCheckpointed:
		return true
	}
	return false
}

// JobStatus is the externally visible job state (GET /jobs/{id}).
type JobStatus struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	State       string  `json:"state"`
	Priority    int     `json:"priority"`
	Attempts    int     `json:"attempts"`
	DeadlineSec float64 `json:"deadlineSec,omitempty"`
	// BackoffSec is the summed virtual retry backoff charged to the job.
	BackoffSec float64 `json:"backoffSec,omitempty"`
	Error      string  `json:"error,omitempty"`
	// CompletionSec is the job's virtual makespan once terminal.
	CompletionSec float64 `json:"completionSec,omitempty"`
	// CheckpointedParts counts partitions checkpointed by a drain.
	CheckpointedParts int `json:"checkpointedParts,omitempty"`
	// Audit explains the run: choose selections and the engine's
	// end-of-run lineage/accounting self-audit (empty = books close).
	Selections map[string][]int `json:"selections,omitempty"`
	Audit      []string         `json:"audit,omitempty"`
}

// Server is the MDF job service. All state is guarded by mu; the step loop
// is the only goroutine that advances engine runs.
type Server struct {
	cfg Config

	// done is closed by the step loop on exit; Close joins on it so no
	// goroutine outlives the server.
	done chan struct{}

	mu      sync.Mutex
	cond    *sync.Cond
	queue   *scheduler.CrossJobQueue
	quotas  *memorymgr.TenantQuotas
	jobs    map[string]*job
	order   []string // job IDs in submission order (metrics merge order)
	active  []*job
	strikes map[string]int
	// quarantined maps a tenant to the number of job completions left in
	// its cooldown.
	quarantined map[string]int
	seq         int
	admitSeq    int
	draining    bool
	stopped     bool
	ctr         counters

	// Telemetry, written only by the transition functions in
	// lifecycle.go: rec is the service-level recorder (quota series via
	// SetProbe, lifecycle-event series on the shared logical clock), ctr
	// and tctr the service-wide and per-tenant event counters surfaced on
	// /metrics, watch the append-only event log behind GET /watch.
	rec      *obs.Recorder
	tctr     map[string]map[event]int64
	watch    []WatchEvent
	watchSeq int
	eventSeq int64

	// Durability: jnl is the write-ahead lifecycle journal and ckpts the
	// content-addressed checkpoint store, both nil on memory-only
	// servers. recovered maps tenant+specHash to the FIFO of recovered
	// job IDs that Submit dedups against after a restart; rctr counts
	// recovery events for /metrics (recovery.go).
	jnl       *journal.Journal
	ckpts     *ckptstore.Store
	recovered map[string][]string
	rctr      recoveryCounters

	// memo is the admission memo; it has its own lock (admission.go).
	memo vetMemo
}

// New starts a memory-only server and its step loop. Config.StateDir is
// ignored; crash-consistent servers are built with Open.
func New(cfg Config) *Server {
	cfg.StateDir = ""
	s := newServer(cfg)
	go s.loop()
	return s
}

// newServer builds a server without starting the step loop; tests use it to
// stage state (e.g. drain mode) before any stepping can happen.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		done:        make(chan struct{}),
		queue:       scheduler.NewCrossJobQueue(cfg.QueueCap, ageEvery),
		quotas:      memorymgr.NewTenantQuotas(cfg.TenantQuota),
		jobs:        make(map[string]*job),
		strikes:     make(map[string]int),
		quarantined: make(map[string]int),
		rec:         obs.NewRecorder(),
		tctr:        make(map[string]map[event]int64),
		recovered:   make(map[string][]string),
	}
	s.cond = sync.NewCond(&s.mu)
	// Quota accounting shares the service recorder, so /series carries
	// per-tenant reserved/headroom gauges next to the admission series.
	s.quotas.SetProbe(s.rec)
	return s
}

// Submit validates and admits one job request. The spec is vetted, compiled
// and planned and the fault plan parsed up front, so malformed submissions
// fail fast with a *RequestError; admission rejections return ErrQueueFull,
// ErrDraining, *memorymgr.QuotaError or *QuarantineError.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	if req.Tenant == "" {
		return JobStatus{}, &RequestError{Err: errors.New("service: tenant is required")}
	}
	if len(req.Spec) == 0 {
		return JobStatus{}, &RequestError{Err: errors.New("service: spec is required")}
	}
	// Everything a document costs is paid here, on the submitter's goroutine
	// and before the lock (admission.go): a spec the verifier condemns
	// (degenerate, dead, or infeasible under this configuration) is rejected
	// up front with structured diagnostics, before anything is reserved, and
	// an admitted job reaches the step loop with its plan built.
	v, g, err := s.vet(req.Spec)
	if err != nil {
		return JobStatus{}, &RequestError{Err: err}
	}
	if len(v.findings) > 0 {
		s.mu.Lock()
		s.rejectedLocked(evVetRejected, req.Tenant)
		s.mu.Unlock()
		return JobStatus{}, &VetError{Findings: v.findings}
	}
	var fplan *faults.Plan
	if len(req.Faults) > 0 {
		fplan, err = faults.Parse(req.Faults)
		if err != nil {
			return JobStatus{}, &RequestError{Err: err}
		}
	}
	p, err := v.buildPlan(g)
	if err != nil {
		return JobStatus{}, &RequestError{Err: err}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		s.rejectedLocked(evDrainRejected, req.Tenant)
		return JobStatus{}, ErrDraining
	}
	if v.specHash != "" {
		// Idempotent re-admission after a restart: a submission matching a
		// journal-recovered job (same tenant, same spec content) is the
		// same job, not a new one — return its current status. The content
		// hash is the durability identity, the dedup key here and, through
		// the chains, the checkpoint-store key space; a memory-only server
		// has neither.
		if j := s.takeRecoveredLocked(req.Tenant, v.specHash); j != nil {
			return s.statusLocked(j), nil
		}
	}
	if fplan != nil {
		if err := fplan.ValidateFor(s.cfg.Workers); err != nil {
			return JobStatus{}, &RequestError{Err: err}
		}
	}
	if left, ok := s.quarantined[req.Tenant]; ok {
		s.rejectedLocked(evQuarantineRejected, req.Tenant)
		return JobStatus{}, &QuarantineError{Tenant: req.Tenant, CooldownJobs: left}
	}
	reserve := sim.Bytes(s.cfg.Workers) * s.cfg.MemPerWorker
	if err := s.quotas.Reserve(req.Tenant, reserve); err != nil {
		s.rejectedLocked(evQuotaRejected, req.Tenant)
		return JobStatus{}, err
	}
	deadline := sim.VTime(s.cfg.DeadlineSec)
	if req.DeadlineSec != 0 {
		deadline = sim.VTime(req.DeadlineSec)
	}
	if deadline < 0 {
		deadline = 0
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("job-%04d", s.seq),
		tenant:   req.Tenant,
		priority: req.Priority,
		deadline: deadline,
		plan:     p,
		fplan:    fplan,
		reserve:  reserve,
		state:    StateQueued,
		chains:   v.chains,
		specHash: v.specHash,
	}
	if !s.queue.Push(j.id, j.tenant, j.priority) {
		s.quotas.Release(j.tenant, reserve)
		s.rejectedLocked(evShed, j.tenant)
		return JobStatus{}, ErrQueueFull
	}
	s.admittedLocked(j)
	// The admitted record carries everything needed to re-admit the job
	// verbatim on restart: the raw spec and fault-plan bytes, the quota
	// reservation, and the dedup hash.
	s.journalLocked(journal.Record{
		Kind: journal.KindAdmitted, Job: j.id, Tenant: j.tenant,
		Priority: j.priority, DeadlineSec: j.deadline,
		ReserveBytes: j.reserve, SpecHash: j.specHash,
		Spec: req.Spec, Faults: req.Faults,
	})
	s.cond.Broadcast()
	return s.statusLocked(j), nil
}

// Job returns the status of one job.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrNotFound
	}
	return s.statusLocked(j), nil
}

// Cancel withdraws a queued job or cancels a running one. Terminal jobs
// return ErrTerminal.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.state {
	case StateQueued:
		s.queue.Remove(j.id)
		s.finalizeQueuedLocked(j, StateCanceled, errClientCancel)
		s.cond.Broadcast()
		return nil
	case StateRunning:
		// The run observes the cause at its next scheduling boundary.
		j.cancel(errClientCancel)
		s.cond.Broadcast()
		return nil
	}
	return ErrTerminal
}

// Health is the /healthz document.
type Health struct {
	State   string `json:"state"` // "ok" or "draining"
	Queued  int    `json:"queued"`
	Active  int    `json:"active"`
	Jobs    int    `json:"jobs"`
	Drained bool   `json:"drained"`
	// VetMemo says what the admission memo (admission.go) holds and how
	// often a submission found its document there.
	VetMemo VetMemoHealth `json:"vetMemo"`
}

// Healthz reports liveness and load.
func (s *Server) Healthz() Health {
	memo := s.memo.health()
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{State: "ok", Queued: s.queue.Len(), Active: len(s.active), Jobs: len(s.jobs), VetMemo: memo}
	if s.draining || s.stopped {
		h.State = "draining"
		h.Drained = !s.hasWorkLocked()
	}
	return h
}

// WaitIdle blocks until no job is queued or running. Tests use it to reach
// a deterministic quiescent point without draining.
func (s *Server) WaitIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.hasWorkLocked() {
		s.cond.Wait()
	}
}

// Drain gracefully shuts admission down: new submissions are rejected with
// ErrDraining, queued jobs still run, and every active job gets
// DrainStepBudget more engine steps before it is canceled and its live
// datasets checkpointed. Drain returns the final aggregated metrics
// snapshot once every admitted job is terminal. Safe to call more than
// once.
func (s *Server) Drain() *obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.cond.Broadcast()
	for s.hasWorkLocked() {
		s.cond.Wait()
	}
	return s.metricsLocked()
}

// Close drains the server, stops the step loop, joins it, and releases
// the durable state handles.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	for s.hasWorkLocked() {
		s.cond.Wait()
	}
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jnl != nil {
		_ = s.jnl.Close() //lint:allow droppederr -- best-effort teardown on shutdown
		s.jnl = nil
	}
	if s.ckpts != nil {
		_ = s.ckpts.Close() //lint:allow droppederr -- best-effort teardown on shutdown
		s.ckpts = nil
	}
}

func (s *Server) hasWorkLocked() bool {
	return s.queue.Len() > 0 || len(s.active) > 0
}

// loop is the step loop: the single goroutine that admits queued jobs and
// advances engine runs, one deterministic step at a time. Scheduling
// decisions happen under s.mu, but the engine Step itself runs with the
// lock released: Step executes real operator compute, and holding the
// service lock across it would block the whole HTTP surface (submit,
// status, health) for the duration of a stage. The run handle is owned
// exclusively by this goroutine while the job is active — nothing outside
// the step path touches j.run, and cancellation is delivered through the
// job's context, which is safe to fire concurrently — so the unlocked
// window introduces no races.
func (s *Server) loop() {
	defer close(s.done)
	for s.turn() {
	}
}

// turn is one turn of the step loop: wait for work, admit what fits, then
// advance the active run that is earliest in virtual time by one engine
// step, with s.mu released while the step runs. It returns false once the
// server is stopped.
func (s *Server) turn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped && !s.hasWorkLocked() {
		s.cond.Wait()
	}
	if s.stopped {
		return false
	}
	s.admitLocked()
	if j := s.nextStepLocked(); j != nil {
		run := j.run
		s.mu.Unlock()
		alive := run.Step()
		s.mu.Lock()
		if !alive {
			s.removeActiveLocked(j)
			s.finalizeRunLocked(j)
		} else {
			// Refresh the job's progress view in place at the step
			// boundary; handlers copy this buffer, never touch the run.
			run.ProgressInto(&j.progress)
		}
	}
	s.cond.Broadcast()
	return true
}

// admitLocked starts queued jobs while runner slots are free.
func (s *Server) admitLocked() {
	for len(s.active) < s.cfg.MaxActive && s.queue.Len() > 0 {
		t, ok := s.queue.Pop()
		if !ok {
			return
		}
		j := s.jobs[t.ID]
		if _, bad := s.quarantined[j.tenant]; bad {
			// The tenant was quarantined after this job queued.
			s.finalizeQueuedLocked(j, StateFailed, &QuarantineError{Tenant: j.tenant, CooldownJobs: s.quarantined[j.tenant]})
			continue
		}
		if err := s.startLocked(j); err != nil {
			s.finalizeQueuedLocked(j, StateFailed, err)
		}
	}
}

// startLocked builds a fresh per-job cluster and run for the job on the
// plan admission built. Every attempt starts from that plan and a fresh
// cluster, so a deterministic fault plan replays identically on each.
func (s *Server) startLocked(j *job) error {
	clCfg := cluster.DefaultConfig()
	clCfg.Workers = s.cfg.Workers
	clCfg.MemPerWorker = s.cfg.MemPerWorker
	cl, err := cluster.New(clCfg)
	if err != nil {
		return err
	}
	// Job lifetimes are deliberately NOT parented on the process signal
	// context: drain grants each active job DrainStepBudget more steps
	// before cancelling, and a signal-parented root would cancel every job
	// instantly at shutdown and break that budget. This is the single
	// sanctioned context root in library code (see the ctxflow allowlist
	// and ARCHITECTURE.md "Concurrency rules").
	ctx, cancel := context.WithCancelCause(context.Background())
	// A fresh recorder per attempt: a retry replays the fault plan from
	// scratch, so its telemetry must not accumulate onto the failed
	// attempt's series.
	rec := obs.NewRecorder()
	run, err := engine.NewRun(j.plan, engine.Options{
		Cluster: cl,
		Policy:  memorymgr.AMM,
		Faults:  j.fplan,
		Context: ctx,
		Probe:   rec,
		// Durable servers mirror every checkpoint into the shared store,
		// keyed by spec chain hashes, so restarts and same-spec jobs
		// resume from verified on-disk copies.
		Checkpoint: s.ckpts != nil,
		Ckpts:      s.ckpts,
		CkptChains: j.chains,
	}, 0)
	if err != nil {
		cancel(nil)
		return err
	}
	j.run = run
	j.rec = rec
	j.cancel = cancel
	j.drainSteps = 0
	run.ProgressInto(&j.progress)
	s.admitSeq++
	j.admitSeq = s.admitSeq
	s.active = append(s.active, j)
	s.startedLocked(j, j.attempts+1, run.Now())
	s.journalLocked(journal.Record{
		Kind: journal.KindStarted, Job: j.id, Tenant: j.tenant,
		Attempt: j.attempts, TSec: run.Now(),
	})
	return nil
}

// nextStepLocked picks the active run that is earliest in virtual time and
// applies deadline and drain-budget cancellation at the scheduling
// boundary. The caller (the step loop) performs the actual engine Step
// with s.mu released and finalizes the run when it stops.
func (s *Server) nextStepLocked() *job {
	if len(s.active) == 0 {
		return nil
	}
	idx := 0
	for i := 1; i < len(s.active); i++ {
		a, b := s.active[i], s.active[idx]
		if a.run.Now() < b.run.Now() || (a.run.Now() == b.run.Now() && a.admitSeq < b.admitSeq) {
			idx = i
		}
	}
	j := s.active[idx]
	if j.deadline > 0 && j.run.Now() >= j.deadline {
		j.cancel(errDeadline)
	}
	if s.draining {
		if j.drainSteps >= s.cfg.DrainStepBudget {
			j.cancel(errDrainCancel)
		}
		j.drainSteps++
	}
	return j
}

// removeActiveLocked drops a finished job from the active set. Only the
// step loop mutates s.active, but the job is re-found by identity rather
// than index so the removal cannot go stale.
func (s *Server) removeActiveLocked(j *job) {
	for i, a := range s.active {
		if a == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// finalizeRunLocked classifies a stopped run and either requeues the job
// for a retry or retires it.
func (s *Server) finalizeRunLocked(j *job) {
	err := j.run.Err()
	j.cancel(nil)
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, errDrainCancel):
		state = StateCheckpointed
		j.checkpointed = j.run.CheckpointLive()
		s.journalLocked(journal.Record{
			Kind: journal.KindCheckpointed, Job: j.id, Tenant: j.tenant,
			Parts: j.checkpointed, TSec: j.run.Now(),
		})
	case errors.Is(err, errClientCancel):
		state = StateCanceled
	case errors.Is(err, errDeadline):
		j.deadlineHit = true
	case engine.IsPanic(err):
		s.strikeLocked(j)
		if j.attempts < s.cfg.Retry.MaxAttempts && !s.draining {
			// Transient failure with attempts left: requeue with the
			// policy's exponential backoff charged in virtual seconds.
			j.backoff += s.cfg.Retry.Backoff(j.attempts)
			if s.queue.Push(j.id, j.tenant, j.priority) {
				j.run.ProgressInto(&j.progress)
				j.run, j.rec, j.cancel = nil, nil, nil
				s.retriedLocked(j, j.backoff)
				s.journalLocked(journal.Record{
					Kind: journal.KindRetried, Job: j.id, Tenant: j.tenant,
					Attempt: j.attempts, BackoffSec: sim.VTime(j.backoff),
				})
				return
			}
			// No room to retry: shed the retry, fail the job.
			j.sheds++
			err = fmt.Errorf("%w (retry shed: %v)", ErrQueueFull, err)
		}
	}
	s.retireLocked(j, state, err)
}

// retireLocked retires a job that holds a run, capturing the run's
// snapshot and audit surface first. Of the job's recorder the service reads
// one thing, once, here: the master node's gauges bucket by bucket, which
// /watch replays. The recorder is dropped with the run.
func (s *Server) retireLocked(j *job, state string, err error) {
	j.end = j.run.Now()
	j.run.ProgressInto(&j.progress)
	j.snapshot = j.run.Snapshot()
	gauges := j.rec.NodeGauges(obs.NodeMaster, watchBucketSec)
	j.selections = j.run.ChooseSelections()
	j.auditLineage = j.run.AuditLineage()
	j.auditBooks = j.run.AuditAccounting()
	j.run, j.rec, j.cancel = nil, nil, nil
	s.terminalLocked(j, state, err)
	s.watchBucketsLocked(j, gauges)
	s.journalTerminalLocked(j)
}

// finalizeQueuedLocked retires a job that never got a run (withdrawn,
// quarantined at pop, or failed to start).
func (s *Server) finalizeQueuedLocked(j *job, state string, err error) {
	s.terminalLocked(j, state, err)
	s.journalTerminalLocked(j)
}

func (s *Server) statusLocked(j *job) JobStatus {
	st := JobStatus{
		ID:                j.id,
		Tenant:            j.tenant,
		State:             j.state,
		Priority:          j.priority,
		Attempts:          j.attempts,
		DeadlineSec:       float64(j.deadline),
		BackoffSec:        j.backoff,
		CheckpointedParts: j.checkpointed,
		Selections:        j.selections,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.terminal() {
		st.CompletionSec = float64(j.end)
		st.Audit = append(st.Audit, j.auditLineage...)
		st.Audit = append(st.Audit, j.auditBooks...)
	}
	return st
}
