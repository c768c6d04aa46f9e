package service

import (
	"metadataflow/internal/obs"
	"metadataflow/internal/sim"
)

// This file is the one place a job lifecycle event is booked. Every
// transition — rejected, admitted, started, struck, retried, terminal,
// recovered — has exactly one function here, which makes all of the
// event's entries: job state, tenant counter, service series, /watch log.
// Submit and the step loop call the transition and then append its journal
// record; journal replay (recovery.go) decodes a record and calls the same
// transition. /metrics, /series and /watch are read off what these
// functions wrote, so a restarted server cannot book an event differently
// from a live one.

// event names one counted lifecycle event; the value is its wire name in
// the "service.<event>.<tenant>" series and the "jobs_<event>" counters.
type event string

// tenantEvents are counted per tenant, summed into the service line by
// metricsLocked, and ticked on the service series. The terminal ones are
// named after the job state they count.
var tenantEvents = []event{
	evSubmitted, StateDone, StateFailed, StateCanceled, StateCheckpointed,
	evShed, evQuotaRejected, evQuarantineRejected,
}

const (
	evSubmitted          event = "submitted"
	evRetried            event = "retried" // ticked on the series; counted from job.retries
	evShed               event = "shed"
	evQuotaRejected      event = "quota_rejected"
	evQuarantineRejected event = "quarantine_rejected"
	// Refusals before admission is attempted: a service-wide counter only,
	// no tenant line and no series tick.
	evVetRejected   event = "vet_rejected"
	evDrainRejected event = "drain_rejected"
)

// counters holds the service-wide events no tenant line carries. Every
// other service counter on /metrics is a sum over the tenant counters;
// jobs_retried is summed from job.retries, which a restart resets with
// the job.
type counters struct {
	vetRejected, drainRejected int64
	deadlineExceeded           int64
	quarantines                int64
	retrySheds                 int64
}

// eventLocked ticks one event on the service series: a per-tenant rate
// counter plus a queue-depth gauge sample, on the shared logical clock.
func (s *Server) eventLocked(ev event, tenant string) {
	s.eventSeq++
	t := sim.VTime(s.eventSeq)
	s.rec.SeriesAdd(obs.NodeMaster, "service."+string(ev)+"."+tenant, t, 1)
	s.rec.SeriesSet(obs.NodeMaster, "service.queue_depth", t, float64(s.queue.Len()))
}

// bookLocked counts one tenant event and ticks its series.
func (s *Server) bookLocked(ev event, tenant string) {
	tc := s.tctr[tenant]
	if tc == nil {
		tc = make(map[event]int64)
		s.tctr[tenant] = tc
	}
	tc[ev]++
	s.eventLocked(ev, tenant)
}

// watchLifecycleLocked appends a lifecycle event for the job's current
// state and wakes follow-mode watchers. tSec is the job's virtual time at
// the transition (0 before the job ever ran).
func (s *Server) watchLifecycleLocked(j *job, tSec float64) {
	s.watchSeq++
	s.watch = append(s.watch, WatchEvent{
		Seq: s.watchSeq, Kind: "lifecycle",
		Job: j.id, Tenant: j.tenant, State: j.state, TSec: tSec,
	})
	s.cond.Broadcast()
}

// rejectedLocked books a refused submission. No job exists, so there is
// no watch event and no journal record.
func (s *Server) rejectedLocked(why event, tenant string) {
	switch why {
	case evVetRejected:
		s.ctr.vetRejected++
	case evDrainRejected:
		s.ctr.drainRejected++
	default:
		s.bookLocked(why, tenant)
	}
}

// admittedLocked enters a new queued job into the books. The caller has
// reserved the job's quota.
func (s *Server) admittedLocked(j *job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.bookLocked(evSubmitted, j.tenant)
	s.watchLifecycleLocked(j, 0)
}

// startedLocked moves a job to running on its attempt-th attempt, at the
// run's virtual start time t.
func (s *Server) startedLocked(j *job, attempt int, t sim.VTime) {
	j.attempts = attempt
	j.state = StateRunning
	s.watchLifecycleLocked(j, t.Seconds())
}

// strikeLocked charges one panic-failed attempt to the job and its tenant
// and trips the quarantine circuit breaker at the configured threshold.
// Strikes have no journal record of their own: the terminal record carries
// the job's count, so replay strikes when it decodes that record and an
// incomplete job's strikes are re-earned by its re-execution.
func (s *Server) strikeLocked(j *job) {
	j.strikes++
	s.strikes[j.tenant]++
	if s.strikes[j.tenant] >= s.cfg.QuarantineStrikes {
		if _, already := s.quarantined[j.tenant]; !already {
			s.quarantined[j.tenant] = s.cfg.QuarantineCooldownJobs
			s.ctr.quarantines++
		}
	}
}

// retriedLocked returns a panic-failed job to the queue with backoff, its
// accumulated virtual retry backoff in seconds.
func (s *Server) retriedLocked(j *job, backoff float64) {
	j.state = StateQueued
	j.err = nil
	j.backoff = backoff
	j.retries++
	s.eventLocked(evRetried, j.tenant)
	s.watchLifecycleLocked(j, 0)
}

// terminalLocked retires a job: final state, the retry shed and deadline
// hit that ended it (set on the job by the caller), quota release, the
// tenant's terminal counter, the watch event at the job's end time, and
// one completion against every quarantine cooldown. The job lets go of what
// only another attempt would have read, its plan and checkpoint chains.
func (s *Server) terminalLocked(j *job, state string, err error) {
	j.state = state
	j.err = err
	j.plan, j.chains = nil, nil
	s.ctr.retrySheds += int64(j.sheds)
	if j.deadlineHit {
		s.ctr.deadlineExceeded++
	}
	s.quotas.Release(j.tenant, j.reserve)
	s.bookLocked(event(state), j.tenant)
	s.watchLifecycleLocked(j, j.end.Seconds())
	for tenant, left := range s.quarantined {
		if left--; left <= 0 {
			delete(s.quarantined, tenant)
			s.strikes[tenant] = 0
		} else {
			s.quarantined[tenant] = left
		}
	}
}

// recoveredLocked returns an incomplete job to queued at attempt zero
// after a restart lost its run: re-execution from the journaled spec and
// fault plan re-earns whatever the lost attempts had been charged. Only
// replay makes this transition, and it writes no journal record.
func (s *Server) recoveredLocked(j *job) {
	wasRunning := j.state == StateRunning
	j.state = StateQueued
	j.attempts, j.backoff, j.err, j.checkpointed = 0, 0, nil, 0
	j.retries, j.sheds, j.strikes, j.deadlineHit = 0, 0, 0, false
	if wasRunning {
		s.watchLifecycleLocked(j, 0)
	}
}
