package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metadataflow/internal/chaos"
)

// mdf invokes the dispatcher capturing both streams.
func mdf(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = dispatch(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func writeFixture(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenStdout pins the stdout of run, bench, chaos and viz to what the
// eight separate binaries this command replaced printed for the same flags
// (testdata/*.golden were captured from them).
func TestGoldenStdout(t *testing.T) {
	cases := []struct{ golden, args string }{
		{"run_synthetic", "run -job synthetic -seed 1"},
		{"run_timeseries_lru_spills", "run -job timeseries -policy lru -spills"},
		{"run_synthetic_trace_explain", "run -job synthetic -trace -explain"},
		{"viz_synthetic", "viz -job synthetic -b1 2 -b2 2"},
		{"viz_synthetic_stages", "viz -job synthetic -b1 2 -b2 2 -stages"},
		{"bench_fig5_quick", "bench -exp fig5 -quick -seeds 1 -csv"},
		{"chaos_trials5", "chaos -trials 5 -seed 1 -repro " + filepath.Join(t.TempDir(), "repro.json")},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, out, errOut := mdf(t, strings.Fields(tc.args)...)
			if code != 0 {
				t.Fatalf("mdf %s: exit = %d, stderr:\n%s", tc.args, code, errOut)
			}
			if out != string(want) {
				t.Errorf("mdf %s: stdout differs from testdata/%s.golden:\n%s", tc.args, tc.golden, out)
			}
		})
	}
}

// TestDispatch is the contract of the dispatcher and of the exit codes it
// passes through: no or an unknown subcommand lists the subcommands and
// exits 2, and so does a bad flag value in every one of them.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}, {"-h"}} {
		code, out, errOut := mdf(t, args...)
		if code != 2 || out != "" {
			t.Errorf("mdf %v: exit = %d, stdout = %q, want 2 and nothing on stdout", args, code, out)
		}
		for _, c := range subcommands {
			if !strings.Contains(errOut, "\n  "+c.name+" ") {
				t.Errorf("mdf %v: usage does not list %q:\n%s", args, c.name, errOut)
			}
		}
	}
	bad := map[string]string{
		"run":   "-policy fifo",
		"bench": "-exp fig5 -seeds 0",
		"serve": "-workers many",
		"chaos": "-trials 0",
		"plan":  "-rules nosuch x.json",
		"lint":  "-rules nosuch",
		"stat":  "-watch ( a.json b.json",
		"viz":   "-job nosuch",
	}
	for _, c := range subcommands {
		flags, ok := bad[c.name]
		if !ok {
			t.Errorf("subcommand %s has no bad-flag case", c.name)
			continue
		}
		code, out, errOut := mdf(t, append([]string{c.name}, strings.Fields(flags)...)...)
		if code != 2 || out != "" || errOut == "" {
			t.Errorf("mdf %s %s: exit = %d, stdout = %q, stderr = %q, want 2 with a message on stderr only", c.name, flags, code, out, errOut)
		}
	}
}

// TestReplayIsOneCommand: `chaos -replay` and `run -faults` replay the same
// repro through the same code — same lines, same exit code — and reject a
// damaged one alike.
func TestReplayIsOneCommand(t *testing.T) {
	trial, err := chaos.GenTrialSpec(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := (&chaos.Repro{Schema: chaos.ReproSchema, Oracle: "accounting", Trial: trial}).WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	repro := writeFixture(t, "repro.json", doc.String())
	code, out, _ := mdf(t, "chaos", "-replay", repro)
	if code != 0 || !strings.HasPrefix(out, "replay: oracle accounting no longer violated") {
		t.Fatalf("chaos -replay: exit = %d, stdout = %q", code, out)
	}
	if c, o, _ := mdf(t, "run", "-faults", repro); c != code || o != out {
		t.Errorf("run -faults: exit = %d, stdout = %q; chaos -replay: exit = %d, stdout = %q", c, o, code, out)
	}

	damaged := writeFixture(t, "damaged.json", strings.Replace(doc.String(), `"workers"`, `"wrkrs"`, 1))
	for _, args := range [][]string{{"chaos", "-replay", damaged}, {"run", "-faults", damaged}} {
		if code, out, _ := mdf(t, args...); code != 2 || out != "" {
			t.Errorf("mdf %v: exit = %d, stdout = %q, want 2", args, code, out)
		}
	}
}

// TestPlanAndRunVetAgreeOnMemory: `plan -mem-gb M` and `run -vet -mem M`
// mean the same M. The spec's one partition is 1.05·10⁹ bytes — over a
// decimal gigabyte, under a binary one — so the two verdicts differ exactly
// when the two flags are converted with different units.
func TestPlanAndRunVetAgreeOnMemory(t *testing.T) {
	spec := writeFixture(t, "spec.json",
		`{"source": {"rows": 100, "partitions": 1, "virtualBytes": 1050000000}, "pipeline": [{"op": {"name": "id"}}]}`)
	planCode, planOut, _ := mdf(t, "plan", "-rules", "memfeasible", "-workers", "2", "-mem-gb", "1", spec)
	runCode, _, runErr := mdf(t, "run", "-spec", spec, "-vet", "-workers", "2", "-mem", "1")
	if planCode != 0 || runCode != 0 {
		t.Errorf("a 1.05e9-byte partition fits 1 GB = 2^30 bytes of worker memory, but plan exit = %d (%q), run -vet exit = %d (%q)",
			planCode, planOut, runCode, runErr)
	}
	// One byte over the binary gigabyte both condemn it.
	spec = writeFixture(t, "over.json",
		`{"source": {"rows": 100, "partitions": 1, "virtualBytes": 1073741825}, "pipeline": [{"op": {"name": "id"}}]}`)
	planCode, planOut, _ = mdf(t, "plan", "-rules", "memfeasible", "-workers", "2", "-mem-gb", "1", spec)
	runCode, _, runErr = mdf(t, "run", "-spec", spec, "-vet", "-workers", "2", "-mem", "1")
	if planCode != 1 || runCode != 1 || !strings.Contains(planOut, "[memfeasible]") || !strings.Contains(runErr, "[memfeasible]") {
		t.Errorf("2^30+1 bytes: plan exit = %d (%q), run -vet exit = %d (%q), want a memfeasible finding from both",
			planCode, planOut, runCode, runErr)
	}
}
