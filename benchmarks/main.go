// Command benchmarks is the host-time benchmark of the metadataflow
// reproduction: it measures what our own Go code costs, end to end and
// layer by layer, where every BENCH_*.json of the repository measures what
// the simulated cluster would take. See README.md in this directory.
//
//	go run -C benchmarks . -workload lib-kernel            # end-to-end metrics
//	go run -C benchmarks . -workload serve-durable -trace 1 # per-layer metrics
//	go run -C benchmarks . -compare a.json b.json          # two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// schema tags the result documents -json writes and -compare reads.
const schema = "mdf.hostbench/v1"

// result is the document of one invocation.
type result struct {
	Schema     string                 `json:"schema"`
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	GoVersion  string                 `json:"go_version"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	NProc      int                    `json:"nproc"`
	Clients    int                    `json:"clients"`
	PerRound   int                    `json:"jobs_per_round"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Samples    int                    `json:"latency_samples"`
	TailPct    float64                `json:"job_ms_p90_percentile_used"`
	EndToEnd   map[string]metricValue `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	Rounds     []roundResult          `json:"rounds"`
	Failures   []string               `json:"failures,omitempty"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Int64("seed", 1, "seed of the generated inputs, spec mix and tenant order")
		seconds      = flag.Float64("seconds", 30, "length of the measured phase; sets the number of rounds")
		trace        = flag.Int("trace", 0, "1 runs the traced round and the probes and reports the per-layer metrics")
		rounds       = flag.Int("rounds", 0, "measured rounds (0: as many as fit -seconds, at least 3)")
		jobs         = flag.Int("jobs", 0, "jobs per round (0: the workload's default)")
		out          = flag.String("out", "", "with -trace 1: write the spans as NDJSON to this file")
		jsonOut      = flag.String("json", "", "append the result document to this file")
		compare      = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		bounds       = flag.String("bounds", "", "BENCHMARK.json holding the regression bounds for -compare (default: searched in . and ..)")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden/<workload>.json from this run's reference pass (seed 1 only)")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), *bounds))
	}
	if _, ok := infoFor(*workloadName); !ok {
		fmt.Fprintf(os.Stderr, "benchmarks: -workload must be one of %s\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := runWorkload(options{
		workload: *workloadName, seed: *seed, seconds: *seconds, traced: *trace != 0,
		rounds: *rounds, jobs: *jobs, traceOut: *out, updateGolden: *updateGolden,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := appendJSON(*jsonOut, res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmarks: %v\n", err)
			os.Exit(1)
		}
	}
	printReport(res)
	printContractLine(res)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadInfos {
		names = append(names, w.name)
	}
	return names
}

type options struct {
	workload     string
	seed         int64
	seconds      float64
	traced       bool
	rounds       int
	jobs         int
	traceOut     string
	updateGolden bool
	// setups overrides setupRepeats and quickProbes cuts the probes' fixed
	// counts; both exist for the harness's own tests, which must stay fast.
	setups      int
	quickProbes bool
}

// setupRepeats is how often the setup runs; setup_s is the median, so that
// one slow pass does not decide it.
const setupRepeats = 3

// runWorkload is one process's work: set up, measure the untraced rounds
// and, when asked, the traced round and the probes.
func runWorkload(o options) (*result, error) {
	info, _ := infoFor(o.workload)
	b := &bench{perRound: info.perRound, quick: o.quickProbes}
	if o.jobs > 0 {
		b.perRound = o.jobs
	}
	var err error
	if b.stateDir, err = os.MkdirTemp(".", ".state-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.stateDir)

	setups := setupRepeats
	if o.setups > 0 {
		setups = o.setups
	}
	var drift []string
	for i := 0; i < setups; i++ {
		start := time.Now()
		if drift, err = b.setup(o.workload, o.seed); err != nil {
			return nil, err
		}
		b.setupS = append(b.setupS, time.Since(start).Seconds())
	}
	if o.updateGolden {
		if o.seed != goldenSeed {
			return nil, fmt.Errorf("-update-golden needs -seed %d", goldenSeed)
		}
		if err := b.writeGolden(); err != nil {
			return nil, err
		}
		drift = nil
	}

	res := &result{
		Schema: schema, Workload: o.workload, Seed: o.seed, Traced: o.traced,
		GoVersion: runtime.Version(), GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Clients: 1, PerRound: len(b.w.round(0, b.perRound)),
	}
	if b.w.serve {
		res.Clients = clientCount()
	}

	// One warm-up round, discarded: it fills caches, grows the heap to its
	// working size and, on the serve path, warms the HTTP stack. Its cost
	// is set-up cost, and it tells how many rounds fit the requested time.
	warm := b.round(-1, b.perRound, nil)
	if warm.Failed > 0 {
		return nil, fmt.Errorf("warm-up round: %d of %d jobs failed: %v", warm.Failed, warm.Jobs, warm.failures)
	}
	b.warmS = warm.WallS
	nRounds := o.rounds
	switch {
	case nRounds > 0:
	case o.traced:
		// The traced invocation needs untraced rounds only as the base of
		// trace.overhead_frac and host.slowdown_frac.
		nRounds = planRounds(o.seconds/3, warm.WallS)
	default:
		nRounds = planRounds(o.seconds, warm.WallS)
	}
	for r := 0; r < nRounds; r++ {
		b.rounds = append(b.rounds, b.round(r, b.perRound, nil))
	}
	if b.w.durable {
		b.reopenRounds()
	}
	var traced []roundResult
	if o.traced {
		// Three traced rounds: their spans and counts add up, and the
		// fastest of them prices the tracing against the fastest untraced
		// round.
		tr := newTracer()
		for r := 0; r < b.count(3); r++ {
			traced = append(traced, b.round(len(b.rounds)+r, b.perRound, tr))
		}
		if res.PerLayer, err = b.perLayer(tr, traced); err != nil {
			return nil, err
		}
		if o.traceOut != "" {
			if err := tr.writeNDJSON(o.traceOut); err != nil {
				return nil, err
			}
		}
	}

	res.EndToEnd, res.TailPct, res.Samples = b.endToEnd()
	res.Rounds = b.rounds
	for _, r := range append(b.rounds[:len(b.rounds):len(b.rounds)], traced...) {
		res.Attempted += r.Jobs
		res.Failed += r.Failed
		res.Failures = append(res.Failures, r.failures...)
	}
	if len(drift) > 0 {
		// The results drifted from the committed golden file: every job of
		// the run reproduces the wrong answer.
		res.Failed = res.Attempted
		res.Failures = append(drift[:min(len(drift), 5)], res.Failures...)
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	return res, nil
}

// reopenRounds re-opens each measured round's state directory once and
// counts every job that does not come back as the clients saw it.
func (b *bench) reopenRounds() {
	for i := range b.rounds {
		r := &b.rounds[i]
		bad, _, err := reopen(r.serve)
		if err != nil {
			r.fail("re-open %s: %v", r.serve.stateDir, err)
			r.Failed = r.Jobs
			continue
		}
		for ; bad > 0 && r.Failed < r.Jobs; bad-- {
			r.fail("re-open %s: a job did not come back terminal with its status", r.serve.stateDir)
		}
	}
}

func appendJSON(path string, res *result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printReport prints every metric by name with its unit, for a reader.
func printReport(res *result) {
	fmt.Printf("workload %s  seed %d  %s  GOMAXPROCS %d  nproc %d  clients %d (closed loop)\n",
		res.Workload, res.Seed, res.GoVersion, res.GoMaxProcs, res.NProc, res.Clients)
	fmt.Printf("rounds %d x %d jobs  attempted %d  failed %d  failed_frac %g\n",
		len(res.Rounds), res.PerRound, res.Attempted, res.Failed, res.FailedFrac)
	for _, msg := range res.Failures {
		fmt.Printf("  failure: %s\n", msg)
	}
	fmt.Println("end-to-end (host time unless the unit says vs = virtual seconds):")
	printMetrics(res.EndToEnd)
	fmt.Printf("  timing metrics are read off the quiet rounds (fastest quarter); their job_ms quantiles pool %d samples; job_ms_p90 reports p%g\n", res.Samples, res.TailPct)
	var calib []string
	for _, r := range res.Rounds {
		calib = append(calib, fmt.Sprintf("%.1f", r.CalibMS))
	}
	fmt.Printf("  host.calib_ms at each round start: %s\n", strings.Join(calib, " "))
	if res.PerLayer != nil {
		fmt.Println("per-layer (traced round, direct calls and isolated probes):")
		printMetrics(res.PerLayer)
	}
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m[name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", name, v.Value, v.Unit)
		if len(v.Rounds) > 1 {
			line += fmt.Sprintf(" spread %.1f%%", 100*relSpread(v.Rounds))
		}
		fmt.Println(line)
	}
}

// printContractLine prints the last line of standard output: one JSON
// object with the run's verdict and the metrics of the requested kind.
func printContractLine(res *result) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if res.Traced {
		src = res.PerLayer
	}
	metrics := make(map[string]reading, len(src))
	for name, v := range src {
		metrics[name] = reading{Value: v.Value, Unit: v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmarks: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
