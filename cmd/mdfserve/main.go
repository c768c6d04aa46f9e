// Command mdfserve is the multi-tenant MDF job service: an HTTP/JSON daemon
// that admits declarative job specs, runs them concurrently on per-job
// simulated clusters under per-tenant memory quotas, and degrades gracefully
// under overload (429 + Retry-After), repeated panics (tenant quarantine)
// and shutdown (SIGTERM drain with checkpointing).
//
// Usage:
//
//	mdfserve -addr :8080
//	mdfserve -addr :8080 -max-active 4 -queue-cap 32 -deadline-sec 600
//	mdfserve -addr :8080 -drain-metrics metrics.json   # flushed on SIGTERM
//	mdfserve -addr :8080 -state-dir /var/lib/mdfserve   # crash-consistent
//
// Submit a job:
//
//	curl -X POST localhost:8080/jobs -d '{"tenant": "alice", "spec": {...}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"metadataflow/internal/service"
	"metadataflow/internal/sim"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 4, "simulated worker nodes per job")
		memMB        = flag.Int64("mem-mb", 256, "simulated memory per worker in MB")
		quotaMB      = flag.Int64("tenant-quota-mb", 0, "per-tenant memory quota in MB (0 = room for two jobs)")
		queueCap     = flag.Int("queue-cap", 16, "admission queue capacity")
		maxActive    = flag.Int("max-active", 2, "concurrently running jobs")
		deadlineSec  = flag.Float64("deadline-sec", 0, "default per-job virtual deadline in simulated seconds (0 = none)")
		drainBudget  = flag.Int("drain-steps", 4, "engine steps granted to each in-flight job during drain before checkpointing")
		drainMetrics = flag.String("drain-metrics", "", "write the final aggregated metrics snapshot to this file on shutdown")
		noVet        = flag.Bool("no-vet", false, "skip plan vetting at admission (by default specs the verifier condemns are rejected with 400 before any quota is reserved)")
		stateDir     = flag.String("state-dir", "", "crash-consistent state directory (job journal + durable checkpoint store); on start the journal is replayed and interrupted jobs resume")
		noSync       = flag.Bool("journal-no-sync", false, "skip the per-record journal fsync (faster, may lose the last records on a crash)")
	)
	flag.Parse()
	if err := run(*addr, *workers, *memMB, *quotaMB, *queueCap, *maxActive, *deadlineSec, *drainBudget, *drainMetrics, *noVet, *stateDir, *noSync); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// readHeaderTimeout bounds how long a connection may take to deliver its
// request line and headers. Without it a client that never finishes its
// request holds a goroutine and a connection for as long as it likes.
// Bodies and responses stay unbounded: ?follow=1 watchers stream for the
// life of their jobs.
const readHeaderTimeout = 10 * time.Second

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

func run(addr string, workers int, memMB, quotaMB int64, queueCap, maxActive int, deadlineSec float64, drainBudget int, drainMetrics string, noVet bool, stateDir string, noSync bool) error {
	srv, err := service.Open(service.Config{
		Workers:         workers,
		MemPerWorker:    sim.Bytes(memMB) << 20,
		TenantQuota:     sim.Bytes(quotaMB) << 20,
		QueueCap:        queueCap,
		MaxActive:       maxActive,
		DeadlineSec:     deadlineSec,
		DrainStepBudget: drainBudget,
		DisableVet:      noVet,
		StateDir:        stateDir,
		JournalNoSync:   noSync,
	})
	if err != nil {
		return fmt.Errorf("mdfserve: recovering state from %s: %w", stateDir, err)
	}
	if stateDir != "" {
		m := srv.Metrics()
		recovered, _ := m.CounterValue("service.recovery.jobs_recovered")
		requeued, _ := m.CounterValue("service.recovery.jobs_requeued")
		truncated, _ := m.CounterValue("service.recovery.journal_truncated")
		fmt.Printf("mdfserve: recovered %d jobs from %s (%d requeued, %d journal truncations healed)\n",
			recovered, stateDir, requeued, truncated)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("mdfserve listening on %s\n", ln.Addr())

	// Graceful shutdown: on SIGINT/SIGTERM stop admitting, let in-flight
	// jobs finish or checkpoint within the drain budget, flush the final
	// metrics snapshot, then close the HTTP listener.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("mdfserve: signal received, draining")

	snap := srv.Drain()
	if drainMetrics != "" {
		f, err := os.Create(drainMetrics)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := snap.WriteJSON(f); err != nil {
			return err
		}
		fmt.Printf("mdfserve: wrote final metrics snapshot to %s\n", drainMetrics)
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		return err
	}
	srv.Close()
	fmt.Println("mdfserve: drained, bye")
	return nil
}
