package service

import (
	"bytes"
	"sort"

	"metadataflow/internal/obs"
)

// Metrics returns the service-level metrics snapshot: the merge of every
// terminal job's end-of-run snapshot (in job submission order, which makes
// the merge input — and therefore the output bytes — independent of the
// order jobs happened to finish in) plus the service's own admission and
// lifecycle counters and per-tenant quota gauges.
func (s *Server) Metrics() *obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metricsLocked()
}

func (s *Server) metricsLocked() *obs.Snapshot {
	var snaps []*obs.Snapshot
	for _, id := range s.order {
		if j := s.jobs[id]; j.snapshot != nil {
			snaps = append(snaps, j.snapshot)
		}
	}
	m := obs.MergeSnapshots(snaps)

	// Per-tenant lifecycle breakdown: every tenant that ever touched the
	// admission path gets the full counter set (zeros included), emitted in
	// sorted tenant order. The service line of each event is the sum of
	// its tenant lines.
	tenants := make([]string, 0, len(s.tctr))
	for t := range s.tctr {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	total := make(map[event]int64, len(tenantEvents))
	for _, t := range tenants {
		p := "service.tenant." + t + ".jobs_"
		for _, ev := range tenantEvents {
			m.AddCounter(p+string(ev), s.tctr[t][ev])
			total[ev] += s.tctr[t][ev]
		}
	}
	for _, ev := range tenantEvents {
		m.AddCounter("service.jobs_"+string(ev), total[ev])
	}
	m.AddCounter("service.jobs_vet_rejected", s.ctr.vetRejected)
	m.AddCounter("service.jobs_drain_rejected", s.ctr.drainRejected)
	m.AddCounter("service.jobs_deadline_exceeded", s.ctr.deadlineExceeded)
	m.AddCounter("service.tenants_quarantined", s.ctr.quarantines)
	m.AddCounter("service.queue_depth", int64(s.queue.Len()))
	m.AddCounter("service.active_jobs", int64(len(s.active)))

	// Restart-recovery accounting, present only on durable servers so a
	// memory-only server's metrics bytes are unchanged by this feature.
	// Comparisons across a crash-restart boundary must strip the
	// service.recovery.* prefix (path-dependent by construction).
	if s.cfg.StateDir != "" {
		m.AddCounter("service.recovery.jobs_recovered", s.rctr.jobsRecovered)
		m.AddCounter("service.recovery.terminal_replayed", s.rctr.terminalReplayed)
		m.AddCounter("service.recovery.jobs_requeued", s.rctr.requeued)
		m.AddCounter("service.recovery.dedup_hits", s.rctr.dedupHits)
		m.AddCounter("service.recovery.journal_records", s.rctr.journalRecords)
		m.AddCounter("service.recovery.journal_truncated", s.rctr.journalTruncated)
		m.AddCounter("service.recovery.journal_append_errors", s.rctr.appendErrors)
	}

	// Per-tenant quota accounting; Tenants() is sorted, so emission order
	// is deterministic.
	for _, tenant := range s.quotas.Tenants() {
		m.AddGauge("service.tenant_peak_reserved_bytes."+tenant, float64(s.quotas.Peak(tenant)))
		m.AddGauge("service.tenant_reserved_bytes."+tenant, float64(s.quotas.Reserved(tenant)))
	}

	m.Normalize()
	return m
}

// MetricsJSON serializes the aggregated snapshot. Same submissions in, same
// bytes out — the determinism tests compare this output directly.
func (s *Server) MetricsJSON() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.Metrics().WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
