package main

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"metadataflow/internal/plan"
	"metadataflow/internal/spec"
)

// fileFinding is the -json wire shape: a plan.Finding plus the file it
// came from, since one run may cover many spec documents.
type fileFinding struct {
	File string `json:"file"`
	Path string `json:"path,omitempty"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// planMain runs the plan-level static verifier (internal/plan) over MDF spec
// files: it proves jobs degenerate, dead or inadmissible from the plan
// alone, checks that documents are in canonical form, and prints
// content-hash reports, in lint's `location: [rule] message` shape (the
// shared flags: vetter; "allow" entries are the spec's suppressions).
//
//	mdf plan spec.json ...                 # run the verifier battery
//	mdf plan -canonical spec.json ...      # also require canonical form
//	mdf plan -canonical -write spec.json   # rewrite files into canonical form
//	mdf plan -hash spec.json               # print the content-hash report
//
// The memory-feasibility rule checks the plan against a cluster shape;
// -workers, -mem-gb and -quota-mb configure it and default to the engine's
// (8 workers, 10 GB each, no tenant quota). `mdf run -vet` and `mdf serve`
// run the same battery with the same units, so equal flag values give equal
// verdicts; a smaller service can still reject what passes here.
//
// A document that does not parse, or under -canonical is not canonical, is
// a finding (exit 1); an unreadable file is exit 2.
func planMain(args []string, stdout, stderr io.Writer) int {
	v := newVetter("plan", `"allow" entries`, "[-canonical [-write]] [-hash] spec.json ...", stdout, stderr)
	var (
		canonical = v.fs.Bool("canonical", false, "also require each document to be in canonical form")
		write     = v.fs.Bool("write", false, "with -canonical, rewrite non-canonical files in place instead of reporting them")
		hashMode  = v.fs.Bool("hash", false, "print each spec's content-hash report instead of verifying")
		workers   = v.fs.Int("workers", 8, "cluster shape for memory feasibility: simulated worker nodes")
		memGB     = v.fs.Int64("mem-gb", 10, "cluster shape for memory feasibility: memory per worker in GB")
		quotaMB   = v.fs.Int64("quota-mb", 0, "tenant quota in MB for admission feasibility (0 = no quota checks)")
	)
	rules, code, done := v.parse(args, plan.Rules())
	if done {
		return code
	}
	if v.fs.NArg() == 0 {
		return v.usageError("no spec files")
	}
	if *write && !*canonical {
		return v.usageError("-write requires -canonical")
	}
	cfg := plan.DefaultConfig()
	cfg.Rules, cfg.Workers, cfg.MemPerWorker, cfg.TenantQuota = rules, *workers, gib(*memGB), mib(*quotaMB)

	for _, file := range v.fs.Args() {
		s, data, err := loadSpec(file)
		if data == nil {
			return fail(stderr, usageErrorf("%v", err))
		}
		if err != nil {
			// A document that does not parse is condemned, not a tool
			// failure: report it like a finding so a sweep over many
			// files covers the rest before exiting 1.
			err = v.fileFinding(file, plan.Finding{Rule: "parse", Msg: err.Error()})
		} else if *hashMode {
			rep := s.HashReport()
			err = v.print(fmt.Sprintf("%s: %s", file, rep.Spec), struct {
				File string `json:"file"`
				*spec.HashReport
			}{file, rep})
		} else {
			err = v.verify(file, s, data, cfg, *canonical, *write)
		}
		if err != nil {
			return fail(stderr, usageErrorf("%v", err))
		}
	}
	return v.exit()
}

func (v *vetter) fileFinding(file string, f plan.Finding) error {
	v.findings++
	return v.print(fmt.Sprintf("%s: %s", file, f), fileFinding{File: file, Path: f.Path, Rule: f.Rule, Msg: f.Msg})
}

// verify checks one parsed document: canonical form when asked, then the
// rule battery. The error is the tool's, not the document's.
func (v *vetter) verify(file string, s *spec.Spec, data []byte, cfg plan.Config, canonical, write bool) error {
	if canonical {
		canon, err := s.Canonicalize()
		if err != nil {
			return err
		}
		switch {
		case bytes.Equal(canon, data):
		case write:
			if err := os.WriteFile(file, canon, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(v.stderr, "%s: rewrote %s\n", v.fs.Name(), file)
		default:
			if err := v.fileFinding(file, plan.Finding{Rule: "canonical", Msg: "document is not in canonical form (run mdf plan -canonical -write)"}); err != nil {
				return err
			}
		}
	}
	res, err := plan.Verify(s, cfg)
	if err != nil {
		return err
	}
	for _, f := range res.Findings {
		if err := v.fileFinding(file, f); err != nil {
			return err
		}
	}
	if *v.stale {
		for _, st := range res.StaleAllows {
			err := v.print(fmt.Sprintf("%s: %s", file, st), struct {
				File string `json:"file"`
				Rule string `json:"rule"`
			}{file, st.Rule})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
