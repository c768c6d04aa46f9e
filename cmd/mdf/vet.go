package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"
)

// vetter is what lint (Go source) and plan (spec documents) share: the flags
//
//	-rules r1,r2    run a subset of the rules
//	-list           list the rules and exit
//	-json           one JSON object per line instead of text
//	-stale-allows   also report suppressions that suppress nothing
//
// and the loop's output — one `location: [rule] message` line or JSON object
// per finding on stdout, stale suppressions likewise but never counted, and
// exit 1 with a tally on stderr when a finding survived.
type vetter struct {
	fs                *flag.FlagSet
	stdout, stderr    io.Writer
	rules             *string
	list, json, stale *bool
	findings          int
}

// newVetter returns the flag set of sub with the shared flags registered;
// allows names what -stale-allows audits, usage is the synopsis after the
// shared flags.
func newVetter(sub, allows, usage string, stdout, stderr io.Writer) *vetter {
	fs := newFlagSet(sub, stderr)
	v := &vetter{
		fs: fs, stdout: stdout, stderr: stderr,
		rules: fs.String("rules", "", "comma-separated subset of rules to run (default: all)"),
		list:  fs.Bool("list", false, "list the available rules and exit"),
		json:  fs.Bool("json", false, "emit findings as one JSON object per line"),
		stale: fs.Bool("stale-allows", false, "also report "+allows+" that suppress nothing (informational; does not affect the exit code)"),
	}
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [-rules r1,r2] [-json] [-stale-allows] [-list] %s\n", fs.Name(), usage)
		fs.PrintDefaults()
	}
	return v
}

// usageError prints msg and the usage text and returns exitUsage.
func (v *vetter) usageError(format string, args ...any) int {
	fmt.Fprintf(v.stderr, v.fs.Name()+": "+format+"\n", args...)
	v.fs.Usage()
	return exitUsage
}

// parse parses args, answers -list and checks -rules against the rules
// known. done reports that the subcommand is finished with exit code.
func (v *vetter) parse(args, known []string) (selected []string, code int, done bool) {
	if v.fs.Parse(args) != nil {
		return nil, exitUsage, true
	}
	if *v.list {
		for _, r := range known {
			fmt.Fprintln(v.stdout, r)
		}
		return nil, exitOK, true
	}
	for _, r := range strings.FieldsFunc(*v.rules, func(c rune) bool { return c == ',' || c == ' ' }) {
		if !slices.Contains(known, r) {
			return nil, v.usageError("unknown rule %q\nvalid rules: %s", r, strings.Join(known, ", ")), true
		}
		selected = append(selected, r)
	}
	return selected, 0, false
}

// print writes one diagnostic: obj as a JSON line under -json, else line. A
// finding is counted by its caller (v.findings); a stale suppression is not.
func (v *vetter) print(line string, obj any) error {
	if *v.json {
		return json.NewEncoder(v.stdout).Encode(obj)
	}
	_, err := fmt.Fprintln(v.stdout, line)
	return err
}

// exit prints the tally and returns the exit code of a completed run.
func (v *vetter) exit() int {
	if v.findings > 0 {
		fmt.Fprintf(v.stderr, "%s: %d finding(s)\n", v.fs.Name(), v.findings)
		return exitFailed
	}
	return exitOK
}
