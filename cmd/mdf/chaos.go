package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"metadataflow/internal/chaos"
)

// chaosMain drives the deterministic chaos harness (internal/chaos): the
// seeded sweep of golden-vs-faulted trials, whose first violation is shrunk
// into a repro file replayable with -replay here or `mdf run -faults`, and,
// with -crash, the crash-restart sweep that kills and restarts a durable
// service at every journal record boundary.
//
//	mdf chaos -trials 50 -seed 1
//	mdf chaos -trials 200 -seed 7 -oracle accounting,lineage
//	mdf chaos -replay chaos-repro.json
//	mdf chaos -crash -trials 50 -seed 1 -state-root /tmp/mdfcrash
//
// The log lines are deterministic for a given seed and trial count.
func chaosMain(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("chaos", stderr)
	var (
		trials    = fs.Int("trials", 50, "number of generated trials to run")
		seed      = fs.Int64("seed", 1, "sweep seed; same seed and trials reproduce the sweep bit for bit")
		oracle    = fs.String("oracle", "", "comma-separated oracle filter (default all): "+strings.Join(chaos.AllOracles, ", "))
		replay    = fs.String("replay", "", "replay a chaos-repro.json file instead of sweeping")
		reproOut  = fs.String("repro", "chaos-repro.json", "where to write the shrunk repro of the first violation")
		crash     = fs.Bool("crash", false, "run the crash-restart oracle against a durable service instead of the engine sweep")
		stateRoot = fs.String("state-root", "", "crash mode: directory for per-trial service state (default a temp dir, removed on success)")
	)
	if fs.Parse(args) != nil {
		return exitUsage
	}
	if *trials < 1 {
		return fail(stderr, usageErrorf("-trials must be positive, got %d", *trials))
	}
	if *crash {
		return crashSweep(*trials, *seed, *stateRoot, stdout, stderr)
	}
	if err := chaos.ValidateFilter(*oracle); err != nil {
		return fail(stderr, usageErrorf("%v", err))
	}
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			return fail(stderr, usageErrorf("%v", err))
		}
		return replayRepro(data, *oracle, stdout, stderr)
	}
	res, err := chaos.Sweep(*seed, *trials, *oracle, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "sweep: %d trials, %d violations (seed %d)\n", res.Trials, res.Violations, *seed)
	if res.Repro != nil {
		if err := writeFile(*reproOut, res.Repro.WriteJSON); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote shrunk repro (%d fault events, oracle %s) to %s\n",
			res.Repro.Trial.Faults.NumEvents(), res.Repro.Oracle, *reproOut)
	}
	if res.Violations > 0 {
		return exitFailed
	}
	return exitOK
}

// crashSweep executes the crash-restart sweep. State directories land under
// stateRoot (kept for inspection when the caller names one, removed
// otherwise).
func crashSweep(trials int, seed int64, stateRoot string, stdout, stderr io.Writer) int {
	keep := stateRoot != ""
	if !keep {
		dir, err := os.MkdirTemp("", "mdfcrash-")
		if err != nil {
			return fail(stderr, err)
		}
		stateRoot = dir
	}
	res, err := chaos.CrashSweep(seed, trials, stateRoot, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "crash sweep: %d trials, %d restart boundaries, %d violations (seed %d)\n",
		res.Trials, res.Boundaries, res.Violations, seed)
	if res.Violations > 0 {
		fmt.Fprintf(stdout, "state kept under %s\n", stateRoot)
		return exitFailed
	}
	if !keep {
		os.RemoveAll(stateRoot)
	}
	return exitOK
}
