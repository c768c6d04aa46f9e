package service_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"metadataflow/internal/chaos"
	"metadataflow/internal/ckptstore"
	"metadataflow/internal/cluster"
	"metadataflow/internal/engine"
	"metadataflow/internal/faults"
	"metadataflow/internal/graph"
	"metadataflow/internal/journal"
	"metadataflow/internal/memorymgr"
	"metadataflow/internal/obs"
	"metadataflow/internal/service"
	"metadataflow/internal/spec"
)

// outcome is what a job's terminal status says about its run.
type outcome struct {
	State         string
	Error         string
	CompletionSec float64
	Selections    map[string][]int
	Audit         []string
}

// oneRun is the reference for a service job: one engine run of the job's
// plan and fault plan on a fresh cluster, with the options the service's
// startLocked gives a run on a durable server (a checkpoint store of its
// own, keyed by the spec's chain hashes) and the deadline check its
// nextStepLocked makes before every step. canceled cancels the run before
// its first step: the one client cancel of a running job in these sessions
// comes there.
func oneRun(t *testing.T, cfg service.Config, rec journal.Record, canceled bool) outcome {
	t.Helper()
	sp, err := spec.Parse(rec.Spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.BuildPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	var fplan *faults.Plan
	if len(rec.Faults) > 0 {
		if fplan, err = faults.Parse(rec.Faults); err != nil {
			t.Fatal(err)
		}
	}
	clCfg := cluster.DefaultConfig()
	clCfg.Workers = cfg.Workers
	clCfg.MemPerWorker = cfg.MemPerWorker
	cl, err := cluster.New(clCfg)
	if err != nil {
		t.Fatal(err)
	}
	store := ckptstore.New(t.TempDir())
	if err := store.Open(); err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	run, err := engine.NewRun(p, engine.Options{
		Cluster:    cl,
		Policy:     memorymgr.AMM,
		Faults:     fplan,
		Context:    ctx,
		Probe:      obs.NewGaugeProbe(obs.DefaultBucketSec),
		Checkpoint: true,
		Ckpts:      store,
		CkptChains: sp.HashReport().OpChains,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if canceled {
		cancel(errors.New("canceled by client"))
	}
	for {
		if rec.DeadlineSec > 0 && run.Now() >= rec.DeadlineSec {
			cancel(errors.New("virtual deadline exceeded"))
		}
		if !run.Step() {
			break
		}
	}
	o := outcome{State: service.StateFailed, CompletionSec: run.Now().Seconds(), Selections: run.ChooseSelections()}
	switch err := run.Err(); {
	case err == nil:
		o.State = service.StateDone
	case canceled:
		o.State = service.StateCanceled
		o.Error = err.Error()
	default:
		o.Error = err.Error()
	}
	o.Audit = append(o.Audit, run.AuditLineage()...)
	o.Audit = append(o.Audit, run.AuditAccounting()...)
	return o
}

// checkOneRun closes s and requires every job that started a run to have
// ended as oneRun of its admitted request ends. The requests are read back
// from the server's journal; a job that never started (canceled in the queue,
// refused at pop) has nothing to compare.
func checkOneRun(t *testing.T, s *service.Server, cfg service.Config) {
	t.Helper()
	s.Close()
	recs, err := journal.Replay(filepath.Join(cfg.StateDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	started := make(map[string]bool)
	for _, rec := range recs {
		if rec.Kind == journal.KindStarted {
			started[rec.Job] = true
		}
	}
	ran := 0
	for _, rec := range recs {
		if rec.Kind != journal.KindAdmitted || !started[rec.Job] {
			continue
		}
		ran++
		st, err := s.Job(rec.Job)
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{st.State, st.Error, st.CompletionSec, st.Selections, st.Audit}
		if want := oneRun(t, cfg, rec, st.State == service.StateCanceled); !reflect.DeepEqual(got, want) {
			t.Errorf("%s ended\n %+v\none run of it ends\n %+v", rec.Job, got, want)
		}
	}
	if ran == 0 {
		t.Errorf("no job ran")
	}
}

// TestJobIsOneRun: whatever becomes of a job that the service starts, its
// terminal status — state, error, completion time, selections, audit — is
// that of one engine run of the job on a fresh cluster. Every run is a
// deterministic simulation, so nothing the service does after a run ends can
// give the job a different outcome. The inputs are the mixed lifecycle
// sequence, the six-job telemetry session and the first ten crash-restart
// trials of seed 1, each on a durable server.
func TestJobIsOneRun(t *testing.T) {
	t.Run("mixed", func(t *testing.T) {
		s, cfg := service.MixedSequence(t, t.TempDir())
		checkOneRun(t, s, cfg)
	})
	t.Run("session", func(t *testing.T) {
		s, cfg := service.Session(t, t.TempDir())
		checkOneRun(t, s, cfg)
	})
	for trial := 0; trial < 10; trial++ {
		ts, err := chaos.GenCrashTrialSpec(1, trial)
		if err != nil {
			t.Fatal(err)
		}
		// The crash sweep's service envelope: quotas and quarantine out of
		// the way.
		cfg := service.Config{Workers: 4, MemPerWorker: 64 << 20, TenantQuota: 1 << 40, QueueCap: 64, MaxActive: 2,
			QuarantineStrikes: 1 << 20, StateDir: t.TempDir(), JournalNoSync: true}
		s, err := service.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cj := range ts.Jobs {
			if _, err := s.Submit(service.JobRequest{Tenant: cj.Tenant, Priority: cj.Priority, Spec: cj.Spec, Faults: cj.Faults}); err != nil {
				t.Fatalf("crash trial %d: %v", trial, err)
			}
			s.WaitIdle()
		}
		checkOneRun(t, s, cfg)
	}
}
