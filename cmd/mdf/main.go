// Command mdf is the one command-line entry point of the reproduction:
// `mdf <subcommand> [flags]`, the subcommands being those of the table
// below (`mdf` alone prints it, `mdf <subcommand> -h` a subcommand's flags;
// the dispatcher has no flags of its own). Every subcommand keeps one
// exit-code contract: 0 ok, 1 failed (a failed run, findings, a regression),
// 2 usage or unreadable input, 3 a replayed chaos repro still violates its
// oracle, 130 interrupted by SIGINT/SIGTERM. Memory flags (-mem, -mem-gb,
// -mem-mb, -quota-mb, -tenant-quota-mb) are in the engine's binary units:
// 1 GB is 2³⁰ bytes.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"metadataflow/internal/chaos"
	"metadataflow/internal/experiments"
	"metadataflow/internal/graph"
	"metadataflow/internal/sim"
	"metadataflow/internal/spec"
	"metadataflow/internal/workload/dnn"
	"metadataflow/internal/workload/kde"
	"metadataflow/internal/workload/synthetic"
	"metadataflow/internal/workload/timeseries"
)

// The exit-code contract of every subcommand.
const (
	exitOK          = 0
	exitFailed      = 1 // a failed run, findings, a regression
	exitUsage       = 2 // bad flags or unreadable input
	exitOracle      = 3 // a replayed chaos repro still violates its oracle
	exitInterrupted = 130
)

// subcommands is the dispatch table, in the order the usage text lists it.
var subcommands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"run", "execute one workload MDF or JSON spec on the simulated cluster", runMain},
	{"bench", "regenerate the paper's tables and figures", benchMain},
	{"serve", "the multi-tenant HTTP/JSON job service", serveMain},
	{"chaos", "seeded chaos sweep; -crash for the crash-restart sweep", chaosMain},
	{"plan", "vet, canonicalise and hash JSON spec documents", planMain},
	{"lint", "determinism, unit and concurrency static analysis of the repo", lintMain},
	{"stat", "diff two telemetry artifacts and gate on regressions", statMain},
	{"viz", "render an MDF as Graphviz DOT", vizMain},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args[0] names; without one it lists them.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range subcommands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "mdf: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: mdf <subcommand> [flags]")
	for _, c := range subcommands {
		fmt.Fprintf(stderr, "  %-6s %s\n", c.name, c.summary)
	}
	return exitUsage
}

// newFlagSet returns the flag set of one subcommand: parse errors and -h
// print to stderr and come back to the caller, who returns exitUsage.
func newFlagSet(sub string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("mdf "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// errUsage marks an error caused by a bad flag value rather than a failed
// run.
var errUsage = errors.New("invalid usage")

func usageErrorf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errUsage}, args...)...)
}

// fail prints err and returns the exit status it stands for; a nil err is
// success.
func fail(stderr io.Writer, err error) int {
	if err == nil {
		return exitOK
	}
	fmt.Fprintln(stderr, err)
	switch {
	case errors.Is(err, errUsage):
		return exitUsage
	case errors.Is(err, context.Canceled), errors.Is(err, experiments.ErrInterrupted):
		return exitInterrupted
	}
	return exitFailed
}

// signalContext is canceled by SIGINT or SIGTERM. run stops at its next
// scheduling boundary and still flushes the artifacts asked for; bench stops
// between seeded runs, keeping the experiments already written and leaving
// no partial file of the one in flight; both exit 130. serve drains.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// gib and mib convert a -…gb / -…mb flag value into simulated bytes, in the
// binary units of cluster.DefaultConfig and the engine's reports.
func gib(n int64) sim.Bytes { return sim.Bytes(n) << 30 }
func mib(n int64) sim.Bytes { return sim.Bytes(n) << 20 }

// loadSpec reads and parses one spec document. data is nil when the file
// could not be read; a non-nil data with an error is a document that does
// not parse.
func loadSpec(path string) (s *spec.Spec, data []byte, err error) {
	if data, err = os.ReadFile(path); err != nil {
		return nil, nil, err
	}
	s, err = spec.Parse(data)
	return s, data, err
}

// jobScale says at what size a built-in workload is built: full scale at a
// seed for run, or (draw) shrunk to a graph small enough to read for viz,
// where the synthetic job has b1 × b2 branches.
type jobScale struct {
	seed   int64
	draw   bool
	b1, b2 int
}

// jobs are the built-in workloads -job names, for run and viz alike.
var jobs = []struct {
	name  string
	build func(jobScale) (*graph.Graph, error)
}{
	{"kde", func(sc jobScale) (*graph.Graph, error) {
		p := kde.Defaults()
		p.Seed = sc.seed
		if sc.draw {
			p.Rows = 1000
			p.KernelNames = []string{"gaussian", "top-hat"}
			p.Bandwidths = []float64{0.1, 0.3}
		}
		return kde.BuildMDF(p)
	}},
	{"kde-scoped", func(sc jobScale) (*graph.Graph, error) {
		p := kde.DefaultScoped()
		p.Seed = sc.seed
		if sc.draw {
			p.Rows = 1000
			p.KernelNames = []string{"gaussian", "top-hat"}
			p.Bandwidths = []float64{0.2}
		}
		return kde.BuildScopedMDF(p)
	}},
	{"kde-example", func(sc jobScale) (*graph.Graph, error) {
		p := kde.DefaultExample()
		p.Seed = sc.seed
		if sc.draw {
			p.Rows = 1000
		}
		return kde.BuildExampleMDF(p)
	}},
	{"dnn", func(sc jobScale) (*graph.Graph, error) { return dnn.BuildExhaustiveMDF(dnnParams(sc)) }},
	{"dnn-early", func(sc jobScale) (*graph.Graph, error) { return dnn.BuildEarlyChooseMDF(dnnParams(sc)) }},
	{"dnn-iterative", func(sc jobScale) (*graph.Graph, error) {
		p := dnn.DefaultIterative()
		p.Seed = sc.seed
		return dnn.BuildIterativeMDF(p)
	}},
	{"timeseries", func(sc jobScale) (*graph.Graph, error) {
		p := timeseries.Defaults()
		p.Seed = sc.seed
		if sc.draw {
			p.Rows = 1000
			p.MarkWindows = []int{2}
			p.MagDiffs = []float64{0.5, 2.0}
			p.Durations = []int{200}
		}
		return timeseries.BuildMDF(p)
	}},
	{"synthetic", func(sc jobScale) (*graph.Graph, error) {
		p := synthetic.Defaults()
		p.Seed = sc.seed
		if sc.draw {
			p.Rows = 200
			p.OuterBranches = sc.b1
			p.InnerBranches = sc.b2
		}
		return synthetic.BuildMDF(p)
	}},
}

func dnnParams(sc jobScale) dnn.Params {
	p := dnn.Defaults()
	p.Seed = sc.seed
	if sc.draw {
		p.Inits = dnn.Inits()[:2]
		p.LearningRates = []float64{0.001, 0.01}
		p.Momenta = []float64{0.9}
	}
	return p
}

// jobNames lists the workloads for flag help and error messages.
func jobNames() string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.name
	}
	return strings.Join(names, ", ")
}

// buildGraph returns the graph of the spec document at specPath — once vet,
// when given, has passed it — or, without a spec, of the built-in workload
// job at scale sc.
func buildGraph(specPath, job string, sc jobScale, vet func(*spec.Spec) error) (*graph.Graph, error) {
	if specPath == "" {
		for _, j := range jobs {
			if j.name == job {
				return j.build(sc)
			}
		}
		return nil, usageErrorf("unknown job %q (want %s)", job, jobNames())
	}
	s, _, err := loadSpec(specPath)
	if err != nil {
		return nil, err
	}
	if vet != nil {
		if err := vet(s); err != nil {
			return nil, err
		}
	}
	return s.Compile()
}

// replayRepro re-runs a chaos repro's trial — its own cluster, workload and
// fault plan — and re-applies the oracle it names, or filter when that is
// set: exitOracle while the violation still reproduces. `chaos -replay` and
// `run -faults` both end here.
func replayRepro(data []byte, filter string, stdout, stderr io.Writer) int {
	r, err := chaos.ParseRepro(data)
	if err != nil {
		return fail(stderr, usageErrorf("%v", err))
	}
	if filter != "" {
		r.Oracle = filter
	}
	vs, err := chaos.Replay(r)
	if err != nil {
		return fail(stderr, err)
	}
	if len(vs) == 0 {
		fmt.Fprintf(stdout, "replay: oracle %s no longer violated (seed %d, %d workers, %d fault events)\n",
			r.Oracle, r.Trial.Seed, r.Trial.Workers, r.Trial.Faults.NumEvents())
		return exitOK
	}
	for _, v := range vs {
		fmt.Fprintf(stdout, "oracle %s violated: %s\n", v.Oracle, v.Detail)
	}
	fmt.Fprintf(stdout, "replay: reproduces: oracle %s violated %d time(s)\n", vs[0].Oracle, len(vs))
	return exitOracle
}

// writeFile writes what write produces to path, and nothing when it fails.
func writeFile(path string, write func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
