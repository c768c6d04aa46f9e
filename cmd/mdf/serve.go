package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"metadataflow/internal/service"
)

// readHeaderTimeout bounds how long a connection may take to deliver its
// request line and headers. Without it a client that never finishes its
// request holds a goroutine and a connection for as long as it likes.
// Bodies and responses stay unbounded: ?follow=1 watchers stream for the
// life of their jobs.
const readHeaderTimeout = 10 * time.Second

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// serveMain puts the multi-tenant MDF job service (internal/service) behind
// an HTTP listener and drains it on SIGINT/SIGTERM.
//
//	mdf serve -addr :8080
//	mdf serve -addr :8080 -max-active 4 -queue-cap 32 -deadline-sec 600
//	mdf serve -addr :8080 -drain-metrics metrics.json   # flushed on SIGTERM
//	mdf serve -addr :8080 -state-dir /var/lib/mdf   # crash-consistent
//
// Submit a job:
//
//	curl -X POST localhost:8080/jobs -d '{"tenant": "alice", "spec": {...}}'
//
// The log lines on stdout keep the daemon's `mdfserve` prefix: they are the
// bytes scripts that supervise it already match.
func serveMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("serve", stderr)
	var cfg service.Config
	addr := fs.String("addr", ":8080", "listen address")
	fs.IntVar(&cfg.Workers, "workers", 4, "simulated worker nodes per job")
	memMB := fs.Int64("mem-mb", 256, "simulated memory per worker in MB")
	quotaMB := fs.Int64("tenant-quota-mb", 0, "per-tenant memory quota in MB (0 = room for two jobs)")
	fs.IntVar(&cfg.QueueCap, "queue-cap", 16, "admission queue capacity")
	fs.IntVar(&cfg.MaxActive, "max-active", 2, "concurrently running jobs")
	fs.Float64Var(&cfg.DeadlineSec, "deadline-sec", 0, "default per-job virtual deadline in simulated seconds (0 = none)")
	fs.IntVar(&cfg.DrainStepBudget, "drain-steps", 4, "engine steps granted to each in-flight job during drain before checkpointing")
	drainMetrics := fs.String("drain-metrics", "", "write the final aggregated metrics snapshot to this file on shutdown")
	fs.BoolVar(&cfg.DisableVet, "no-vet", false, "skip plan vetting at admission (by default specs the verifier condemns are rejected with 400 before any quota is reserved)")
	fs.StringVar(&cfg.StateDir, "state-dir", "", "crash-consistent state directory (job journal + durable checkpoint store); on start the journal is replayed and interrupted jobs resume")
	fs.BoolVar(&cfg.JournalNoSync, "journal-no-sync", false, "skip the per-record journal fsync (faster, may lose the last records on a crash)")
	if fs.Parse(args) != nil {
		return exitUsage
	}
	cfg.MemPerWorker, cfg.TenantQuota = mib(*memMB), mib(*quotaMB)
	return fail(stderr, serve(cfg, *addr, *drainMetrics, stdout))
}

func serve(cfg service.Config, addr, drainMetrics string, stdout io.Writer) error {
	srv, err := service.Open(cfg)
	if err != nil {
		return fmt.Errorf("mdf serve: recovering state from %s: %w", cfg.StateDir, err)
	}
	defer srv.Close()
	if cfg.StateDir != "" {
		m := srv.Metrics()
		recovered, _ := m.CounterValue("service.recovery.jobs_recovered")
		requeued, _ := m.CounterValue("service.recovery.jobs_requeued")
		truncated, _ := m.CounterValue("service.recovery.journal_truncated")
		fmt.Fprintf(stdout, "mdfserve: recovered %d jobs from %s (%d requeued, %d journal truncations healed)\n",
			recovered, cfg.StateDir, requeued, truncated)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "mdfserve listening on %s\n", ln.Addr())

	// Graceful shutdown: on SIGINT/SIGTERM stop admitting, let in-flight
	// jobs finish or checkpoint within the drain budget, flush the final
	// metrics snapshot, then close the HTTP listener.
	ctx, stop := signalContext()
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "mdfserve: signal received, draining")

	snap := srv.Drain()
	if drainMetrics != "" {
		if err := writeFile(drainMetrics, snap.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "mdfserve: wrote final metrics snapshot to %s\n", drainMetrics)
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Close() // before the farewell; the deferred one (Close is idempotent) covers the error paths
	fmt.Fprintln(stdout, "mdfserve: drained, bye")
	return nil
}
