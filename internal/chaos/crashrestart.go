package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"metadataflow/internal/ckptstore"
	"metadataflow/internal/faults"
	"metadataflow/internal/journal"
	"metadataflow/internal/service"
	"metadataflow/internal/stats"
)

// This file is the crash-restart oracle: the service-level analogue of the
// engine chaos harness. A trial runs a batch of jobs to completion on a
// durable server (the golden run), replays its journal, and then — for
// every record boundary k — materialises a crash at exactly that point: a
// fresh state directory holding the first k records (optionally decorated
// with a torn tail, journal bit flips and checkpoint-store corruption), a
// restarted server recovering from it, and the same clients blindly
// resubmitting every job. The oracle asserts strict equivalence: every
// job's final status and the service /metrics document (modulo the
// path-dependent service.recovery.* counters) must match the golden run
// byte for byte. Corrupted checkpoint entries must surface as lineage
// re-derivation, never as job failures.

// CrashJob is one client submission of a crash trial.
type CrashJob struct {
	// Tenant names the submitting tenant.
	Tenant string `json:"tenant"`
	// Priority orders admission; smaller is more urgent.
	Priority int `json:"priority,omitempty"`
	// Spec is the MDF job document.
	Spec json.RawMessage `json:"spec"`
	// Faults is the job's deterministic in-run fault plan, exercising the
	// engine's checkpoint-recovery machinery underneath the service crash.
	Faults json.RawMessage `json:"faults,omitempty"`
}

// CrashTrialSpec fully describes one crash-restart trial.
type CrashTrialSpec struct {
	// Seed identifies the trial and derives the per-boundary durability
	// damage (torn tails, bit flips).
	Seed int64 `json:"seed"`
	// Jobs are submitted sequentially — each waits for the previous to
	// finish — so the journal grows deterministically.
	Jobs []CrashJob `json:"jobs"`
	// MaxTornBytes bounds the torn-tail length appended after each cut;
	// 0 disables torn tails.
	MaxTornBytes int `json:"maxTornBytes,omitempty"`
}

// crashServiceConfig is the fixed service envelope of every crash trial.
// Quotas are effectively unlimited and quarantine is disabled so the
// equivalence surface is the durability machinery, not admission control.
func crashServiceConfig(stateDir string) service.Config {
	return service.Config{
		Workers: 4, MemPerWorker: 64 << 20, TenantQuota: 1 << 40,
		QueueCap: 64, MaxActive: 2,
		QuarantineStrikes: 1 << 20,
		StateDir:          stateDir,
		JournalNoSync:     true,
	}
}

// GenCrashTrialSpec derives crash trial `trial` of the sweep seeded with
// sweepSeed: 2–4 small exploratory jobs across two tenants, each with a
// fault plan mixing node crashes (transient and permanent) and
// checkpoint-load bit flips, and occasionally a persistently panicking
// job so terminal-failure records replay too.
func GenCrashTrialSpec(sweepSeed int64, trial int) (CrashTrialSpec, error) {
	rng := stats.NewRNG(sweepSeed).Derive(fmt.Sprintf("crash-%d", trial))
	spec := CrashTrialSpec{
		Seed:         rng.Int63(),
		MaxTornBytes: 1 + rng.Intn(64),
	}
	jobs := 2 + rng.Intn(3)
	for i := 0; i < jobs; i++ {
		rows := 40 + rng.Intn(81)
		parts := 2 + rng.Intn(3)
		lo := 0.3 + 0.4*rng.Float64()
		hi := 1.2 + 0.6*rng.Float64()
		name := fmt.Sprintf("crash-%d-%d", trial, i)
		doc := fmt.Sprintf(`{
  "name": %q,
  "source": {"rows": %d, "partitions": %d, "virtualBytes": 2097152, "seed": %d},
  "pipeline": [
    {"op": {"name": "std", "fn": "standardize"}},
    {"explore": {
      "name": "e",
      "branches": [{"label": "lo", "params": {"limit": %.3f}}, {"label": "hi", "params": {"limit": %.3f}}],
      "body": [{"op": {"name": "f", "fn": "filter-absless", "paramKey": "limit"}}],
      "choose": {"evaluator": "size", "selector": {"kind": "max"}}
    }}
  ]
}`, name, rows, parts, rng.Intn(1000), lo, hi)
		plan := &faults.Plan{Seed: rng.Int63()}
		for c := rng.Intn(2) + 1; c > 0; c-- {
			plan.Crashes = append(plan.Crashes, faults.Crash{
				Node:        rng.Intn(4),
				AfterStages: 1 + rng.Intn(3),
				Permanent:   rng.Intn(4) == 0,
			})
		}
		for f := rng.Intn(3); f > 0; f-- {
			plan.CkptFlips = append(plan.CkptFlips, faults.CkptFlip{
				Load: rng.Intn(3), Bit: rng.Intn(256),
			})
		}
		if rng.Intn(4) == 0 {
			// A persistent panic: the engine's operator retries run out, the
			// service retires the job failed after its one run, and the
			// journal gains a failed terminal record to replay.
			plan.Panics = append(plan.Panics, faults.PanicSpec{
				Op: "std", Target: faults.TargetTransform, Times: 1 << 20,
			})
		}
		fb, err := json.Marshal(plan)
		if err != nil {
			return CrashTrialSpec{}, err
		}
		spec.Jobs = append(spec.Jobs, CrashJob{
			Tenant:   fmt.Sprintf("tenant-%d", i%2),
			Priority: rng.Intn(3),
			Spec:     json.RawMessage(doc),
			Faults:   json.RawMessage(fb),
		})
	}
	return spec, nil
}

// crashRun submits every job of the trial sequentially against srv and
// returns each job's final status JSON keyed by job ID, plus the filtered
// metrics document.
func crashRun(srv *service.Server, spec *CrashTrialSpec) (map[string][]byte, []byte, error) {
	statuses := make(map[string][]byte)
	for i, cj := range spec.Jobs {
		st, err := srv.Submit(service.JobRequest{
			Tenant: cj.Tenant, Priority: cj.Priority,
			Spec: cj.Spec, Faults: cj.Faults,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("job %d submit: %w", i, err)
		}
		srv.WaitIdle()
		final, err := srv.Job(st.ID)
		if err != nil {
			return nil, nil, fmt.Errorf("job %s status: %w", st.ID, err)
		}
		b, err := json.Marshal(final)
		if err != nil {
			return nil, nil, err
		}
		statuses[st.ID] = b
	}
	m, err := metricsSansRecovery(srv)
	if err != nil {
		return nil, nil, err
	}
	return statuses, m, nil
}

// metricsSansRecovery renders the server's metrics with the
// path-dependent service.recovery.* counters removed.
func metricsSansRecovery(srv *service.Server) ([]byte, error) {
	m := srv.Metrics()
	kept := m.Counters[:0]
	for _, c := range m.Counters {
		if !strings.HasPrefix(c.Name, "service.recovery.") {
			kept = append(kept, c)
		}
	}
	m.Counters = kept
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// copyDir copies the regular files of src into dst (one level; the
// checkpoint store and journal both use flat directories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// CrashViolation is one equivalence failure at a restart boundary.
type CrashViolation struct {
	// Boundary is the journal prefix length (in records) the crash left.
	Boundary int
	// Detail describes the divergence.
	Detail string
}

// CrashTrialResult summarises one trial.
type CrashTrialResult struct {
	Spec CrashTrialSpec
	// Records is the golden journal's record count; the trial restarts at
	// every boundary 0..Records inclusive.
	Records int
	// Rederived is the golden run's faults.partitions_rederived counter —
	// evidence that corrupt checkpoints were healed by lineage
	// re-derivation rather than failing jobs.
	Rederived int64
	// Violations lists every boundary whose restarted run diverged.
	Violations []CrashViolation
}

// RunCrashTrial runs the golden pass under stateRoot/golden and a
// kill-and-restart pass at every journal record boundary under
// stateRoot/cut-N. The caller owns stateRoot's lifetime.
func RunCrashTrial(spec CrashTrialSpec, stateRoot string) (*CrashTrialResult, error) {
	goldenDir := filepath.Join(stateRoot, "golden")
	srv, err := service.Open(crashServiceConfig(goldenDir))
	if err != nil {
		return nil, fmt.Errorf("chaos: golden open: %w", err)
	}
	statuses, metrics, err := crashRun(srv, &spec)
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("chaos: golden run: %w", err)
	}
	m := srv.Metrics()
	srv.Close()
	res := &CrashTrialResult{Spec: spec}
	res.Rederived, _ = m.CounterValue("faults.partitions_rederived")

	recs, err := journal.Replay(filepath.Join(goldenDir, "journal"))
	if err != nil {
		return nil, fmt.Errorf("chaos: golden journal: %w", err)
	}
	res.Records = len(recs)
	ckptKeys, err := ckptstore.New(filepath.Join(goldenDir, "ckpt")).Keys()
	if err != nil {
		return nil, fmt.Errorf("chaos: golden ckpt keys: %w", err)
	}

	for k := 0; k <= len(recs); k++ {
		cutDir := filepath.Join(stateRoot, fmt.Sprintf("cut-%04d", k))
		if err := crashAtBoundary(&spec, recs, ckptKeys, k, goldenDir, cutDir, statuses, metrics, res); err != nil {
			return nil, fmt.Errorf("chaos: boundary %d: %w", k, err)
		}
	}
	return res, nil
}

// crashAtBoundary materialises the crash state for one boundary, restarts
// a server over it, replays the clients, and records any divergence.
func crashAtBoundary(spec *CrashTrialSpec, recs []journal.Record, ckptKeys []ckptstore.Key,
	k int, goldenDir, cutDir string, golden map[string][]byte, goldenMetrics []byte,
	res *CrashTrialResult) error {
	jdir := filepath.Join(cutDir, "journal")
	if err := journal.WriteAll(jdir, recs[:k], journal.Options{NoSync: true}); err != nil {
		return err
	}
	dur := faults.GenDurability(spec.Seed+int64(k), spec.MaxTornBytes, k, len(ckptKeys))
	if k < len(recs) && dur.TornTailBytes > 0 {
		frame, err := journal.EncodeFrame(recs[k])
		if err != nil {
			return err
		}
		n := dur.TornTailBytes
		if n >= len(frame) {
			n = len(frame) - 1
		}
		if err := journal.AppendRaw(jdir, frame[:n]); err != nil {
			return err
		}
	}
	for _, f := range dur.JournalFlips {
		if int64(f.Index) < int64(k) {
			if err := journal.FlipBit(jdir, int64(f.Index), f.Bit); err != nil {
				return err
			}
		}
	}
	if err := copyDir(filepath.Join(goldenDir, "ckpt"), filepath.Join(cutDir, "ckpt")); err != nil {
		return err
	}
	if len(ckptKeys) > 0 {
		st := ckptstore.New(filepath.Join(cutDir, "ckpt"))
		for _, f := range dur.CkptFileFlips {
			if err := st.CorruptNth(f.Index%len(ckptKeys), f.Bit); err != nil {
				return err
			}
		}
	}

	srv, err := service.Open(crashServiceConfig(cutDir))
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	statuses, metrics, err := crashRun(srv, spec)
	srv.Close()
	if err != nil {
		return fmt.Errorf("restarted run: %w", err)
	}
	if len(statuses) != len(golden) {
		res.Violations = append(res.Violations, CrashViolation{Boundary: k,
			Detail: fmt.Sprintf("%d jobs after restart, golden had %d", len(statuses), len(golden))})
		return nil
	}
	ids := make([]string, 0, len(golden))
	for id := range golden {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want := golden[id]
		got, ok := statuses[id]
		if !ok {
			res.Violations = append(res.Violations, CrashViolation{Boundary: k,
				Detail: fmt.Sprintf("job %s missing after restart", id)})
			continue
		}
		if !bytes.Equal(got, want) {
			res.Violations = append(res.Violations, CrashViolation{Boundary: k,
				Detail: fmt.Sprintf("job %s diverged: got %s want %s", id, got, want)})
		}
	}
	if !bytes.Equal(metrics, goldenMetrics) {
		res.Violations = append(res.Violations, CrashViolation{Boundary: k,
			Detail: fmt.Sprintf("metrics diverged (%d vs %d bytes)", len(metrics), len(goldenMetrics))})
	}
	return nil
}

// CrashSweepResult summarises a crash-restart sweep.
type CrashSweepResult struct {
	Trials     int
	Boundaries int
	Violations int
}

// CrashSweep runs `trials` generated crash trials from sweepSeed under
// stateRoot, logging one line per trial. Like Sweep, the log carries only
// seeded data, so two sweeps with identical arguments produce
// byte-identical output — and the golden journal each trial leaves under
// stateRoot/trial-N/golden/journal is likewise byte-reproducible.
func CrashSweep(sweepSeed int64, trials int, stateRoot string, out io.Writer) (*CrashSweepResult, error) {
	res := &CrashSweepResult{Trials: trials}
	for i := 0; i < trials; i++ {
		spec, err := GenCrashTrialSpec(sweepSeed, i)
		if err != nil {
			return nil, fmt.Errorf("chaos: crash trial %d: %w", i, err)
		}
		tr, err := RunCrashTrial(spec, filepath.Join(stateRoot, fmt.Sprintf("trial-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("chaos: crash trial %d: %w", i, err)
		}
		res.Boundaries += tr.Records + 1
		if len(tr.Violations) == 0 {
			fmt.Fprintf(out, "crash trial %3d ok      jobs=%d records=%d boundaries=%d rederived=%d\n",
				i, len(spec.Jobs), tr.Records, tr.Records+1, tr.Rederived)
			continue
		}
		res.Violations += len(tr.Violations)
		v := tr.Violations[0]
		fmt.Fprintf(out, "crash trial %3d FAILED  boundary=%d %s (and %d more)\n",
			i, v.Boundary, v.Detail, len(tr.Violations)-1)
	}
	return res, nil
}
