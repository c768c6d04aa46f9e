package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"metadataflow/internal/analysis"
)

// lintMain runs the repo's determinism, simulator-discipline and
// concurrency-safety static-analysis suite (internal/analysis) over the
// module the working directory is in, and prints one `file:line: [rule]
// message` diagnostic per finding (the shared flags: vetter).
//
//	mdf lint ./...                  # whole module (the ci gate)
//	mdf lint ./internal/engine      # one subtree
//	mdf lint -stale-allows ./...    # also audit //lint:allow directives
//
// A finding is suppressed with a `//lint:allow <rule>` comment on the
// offending line or the line above it; the -json objects are
// analysis.Finding and analysis.StaleAllow. See ARCHITECTURE.md,
// "Determinism rules", "Unit types and semantic rules" and "Concurrency
// rules".
func lintMain(args []string, stdout, stderr io.Writer) int {
	v := newVetter("lint", "//lint:allow directives", "[./... | dir ...]", stdout, stderr)
	rules, code, done := v.parse(args, analysis.Rules())
	if done {
		return code
	}
	cfg := analysis.DefaultConfig()
	cfg.Rules = rules
	root, err := moduleRoot()
	if err != nil {
		return fail(stderr, usageErrorf("%v", err))
	}
	prefixes, err := pathPrefixes(v.fs.Args(), root)
	if err != nil {
		return fail(stderr, usageErrorf("%v", err))
	}
	m, err := analysis.Load(root)
	if err != nil {
		return fail(stderr, usageErrorf("%v", err))
	}

	findings, stale := analysis.Analyze(m, cfg)
	for _, f := range findings {
		if underAny(f.File, prefixes) {
			v.findings++
			if err := v.print(f.String(), f); err != nil {
				return fail(stderr, usageErrorf("%v", err))
			}
		}
	}
	if *v.stale {
		for _, s := range stale {
			if underAny(s.File, prefixes) {
				if err := v.print(s.String(), s); err != nil {
					return fail(stderr, usageErrorf("%v", err))
				}
			}
		}
	}
	return v.exit()
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// pathPrefixes converts the command-line patterns into module-relative
// directory prefixes; "./..." (or no argument) means everything.
func pathPrefixes(args []string, root string) ([]string, error) {
	var out []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." || arg == "." {
			return nil, nil // everything
		}
		arg = strings.TrimSuffix(arg, "/...")
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("path %q is outside the module", arg)
		}
		out = append(out, filepath.ToSlash(rel))
	}
	return out, nil
}

// underAny reports whether the file path is under one of the prefixes (an
// empty prefix list matches everything).
func underAny(path string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if p == "." || path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
