GO ?= go

.PHONY: all help build test vet lint specvet race race-short exp-plain fuzz-short chaos-short chaos crash-short bench-smoke hostbench-check mutate-short ci clean

all: build

# help lists the targets worth knowing about.
help:
	@echo "mdf targets:"
	@echo "  build             compile everything"
	@echo "  test              go test ./..."
	@echo "  vet               go vet ./... for this platform and for arm64, and fail on any file gofmt -l lists"
	@echo "  lint              mdf lint: the eight determinism, unit and concurrency rules (mdf lint -list; exits nonzero on findings)"
	@echo "  specvet           mdf plan: canonical-form + plan-verifier gate on every committed spec"
	@echo "  race              full test suite under the race detector"
	@echo "  race-short        focused -race -short -count=1 gate on the concurrent packages (service, engine, scheduler, chaos; mdf, spec, workload/..., vecmath, whose functions run on the engine's pool goroutines; dataset, graph, memorymgr, whose structures those goroutines read)"
	@echo "  exp-plain         every vector kernel's tests (vecmath), dnn's checksums and kde's Gaussian pins again under GODEBUG=cpu.fma=off, math.Exp's plain path, on a CPU with FMA too"
	@echo "  fuzz-short        brief fuzz runs of the JSON parsers and of job submission"
	@echo "  chaos-short       deterministic 50-trial chaos sweep, run twice and compared"
	@echo "  chaos             long randomized chaos sweep (CHAOS_SEED, CHAOS_TRIALS)"
	@echo "  crash-short       kill-and-restart sweep at every journal record boundary, run twice and compared"
	@echo "  bench-smoke       compile every Benchmark* under internal/ and run each for one iteration, with its allocations"
	@echo "  hostbench-check   vet and test the host-time benchmark module (benchmarks/), which ./... does not reach"
	@echo "  mutate-short      the committed mutant list (internal/mutate): every row must be caught by a test it names"
	@echo "  ci                the merge gate: vet lint specvet build race race-short exp-plain chaos-short crash-short bench-smoke hostbench-check mutate-short"

build:
	$(GO) build ./...

# vet also fails when gofmt would reformat a file (fixtures under testdata
# included), naming the files. The second vet compiles the tree for arm64,
# so that the files built off amd64 (vecmath's kernels_other.go) are checked
# too.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# lint runs `mdf lint`, the repo's determinism, unit-discipline and
# concurrency-safety static analyzer: eight rules, one entry each in
# internal/analysis's rules table (see ARCHITECTURE.md "Determinism rules",
# "Unit types and semantic rules" and "Concurrency rules"). It exits nonzero
# on any finding; -stale-allows additionally audits suppression comments.
lint:
	$(GO) run ./cmd/mdf lint -stale-allows ./...

# specvet runs `mdf plan`, the plan-level verifier (see ARCHITECTURE.md "Spec
# canonical form and plan vetting"), over every committed spec document:
# examples and the canonical golden fixtures must be in canonical form,
# pass the full rule battery, and carry no stale allow entries. The seeded
# defect fixtures under internal/plan/testdata are deliberately excluded —
# they exist to be condemned.
specvet: build
	$(GO) run ./cmd/mdf plan -canonical -stale-allows \
		examples/specs/*.json internal/spec/testdata/canonical/*.json

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-short is the focused race gate on the packages with real
# concurrency: the service (step loop vs HTTP surface), the engine (context
# cancellation, and the goroutines that compute ready branches ahead of
# their pick), the scheduler, the chaos harness, and every package whose
# functions the engine calls on those goroutines — the operator and
# evaluator constructors of mdf and spec, the four workloads (whose
# sibling branches share host work through mdf.Memo) and vecmath, whose
# vector kernels the workloads run. The engine's and the
# chaos harness's serial-equals-pooled tests set GOMAXPROCS(4) themselves
# and size their inputs above the engine's gate, so the pool is reached on
# a single-CPU runner too; the engine's run the
# functions of the other packages there. dataset, graph and memorymgr are in
# for what those goroutines read of them (a dataset's partition values, the
# one column header their windows share and a deferred column's one fill,
# Stage.String's lazy label) and for their
# reference models (the Alg. 2 transcription, the edge map; the sort-based
# top-k is mdf's), none of which -short skips.
# -count=1 defeats the test cache so the race detector actually runs on every
# invocation. Part of ci.
race-short:
	$(GO) test -race -short -count=1 ./internal/service ./internal/engine ./internal/scheduler ./internal/chaos \
		./internal/mdf ./internal/spec ./internal/workload/... ./internal/vecmath \
		./internal/dataset ./internal/graph ./internal/memorymgr

# exp-plain runs the tests of internal/vecmath, which holds every vector
# kernel, and dnn's and kde's again with math.Exp on its plain path:
# math.Exp on amd64 fuses its products when the CPU has FMA and rounds each
# one otherwise, vecmath's TanhRow and ExpRow repeat whichever of the two a
# probe finds math.Exp running, dnn's training checksums are pinned for
# both, and kde's Gaussian goes through ExpRow, held to math.Exp by its
# reference tests. GODEBUG=cpu.fma=off turns math's FMA path off, so a
# machine with FMA checks both paths: every kernel under the plain probe,
# the plain transliteration, the plain checksums and kde's densities on the
# plain path. -count=1 because the test cache does not key on GODEBUG. Part
# of ci.
exp-plain:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/vecmath ./internal/workload/dnn ./internal/workload/kde

# fuzz-short runs the JSON-parser fuzz targets and job submission over HTTP
# briefly on top of their seed corpora (testdata/fuzz; FuzzSubmit's seeds are
# the spec documents of the plan tests, the examples and the spec corpus);
# longer runs use -fuzztime directly.
fuzz-short:
	$(GO) test ./internal/spec -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/spec -run='^$$' -fuzz=FuzzCanonical -fuzztime=5s
	$(GO) test ./internal/faults -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=5s
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzSubmit -fuzztime=5s

# chaos-short is the deterministic chaos gate: a fixed-seed 50-trial sweep
# (random cluster + workload + fault plan per trial, golden-vs-faulted
# oracles; see ARCHITECTURE.md "Chaos testing") run twice and compared
# byte-for-byte, proving both that all oracles pass and that the harness and
# the engine under it are deterministic. Part of ci.
chaos-short: build
	$(GO) run ./cmd/mdf chaos -trials 50 -seed 1 -repro .chaos-repro.json > .chaos-short-a.log
	$(GO) run ./cmd/mdf chaos -trials 50 -seed 1 -repro .chaos-repro.json > .chaos-short-b.log
	cmp .chaos-short-a.log .chaos-short-b.log
	@tail -n 1 .chaos-short-a.log
	@rm -f .chaos-short-a.log .chaos-short-b.log

# chaos is the long randomized sweep for nightly runs; vary the seed to
# explore new fault schedules: CHAOS_SEED=$$RANDOM make chaos. A violation
# leaves a shrunk chaos-repro.json behind for replay with
# `mdf chaos -replay` or `mdf run -faults`.
CHAOS_SEED ?= 1
CHAOS_TRIALS ?= 1000
chaos: build
	$(GO) run ./cmd/mdf chaos -trials $(CHAOS_TRIALS) -seed $(CHAOS_SEED) -repro chaos-repro.json

# crash-short is the crash-consistency gate: a fixed-seed sweep that kills
# and restarts a durable service at every journal record boundary — with
# seeded torn tails, journal bit flips and checkpoint corruption — and
# asserts each recovered run matches the uninterrupted golden run exactly
# (see ARCHITECTURE.md "Durability and crash recovery"). The sweep runs
# twice into separate state roots; the logs must compare byte-for-byte and
# the golden journals of the two runs must be identical, proving the
# durable path itself is deterministic. Part of ci.
crash-short: build
	rm -rf .crash-a .crash-b
	$(GO) run ./cmd/mdf chaos -crash -trials 50 -seed 1 -state-root .crash-a > .crash-short-a.log
	$(GO) run ./cmd/mdf chaos -crash -trials 50 -seed 1 -state-root .crash-b > .crash-short-b.log
	cmp .crash-short-a.log .crash-short-b.log
	@for d in .crash-a/trial-*/golden/journal; do \
		diff -r $$d .crash-b/$${d#.crash-a/} || exit 1; \
	done
	@tail -n 1 .crash-short-a.log
	@rm -rf .crash-a .crash-b .crash-short-a.log .crash-short-b.log

# bench-smoke compiles every Benchmark* under internal/ and runs each once:
# no other gate builds a benchmark, so one that no longer compiles, or fails
# on its first iteration, would go unnoticed until someone needs its number.
# -benchmem logs each one's allocations per operation. What a benchmark
# measures, and at what sizes, is in its own doc comment. Part of ci.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/...

# hostbench-check vets and tests benchmarks/, a module of its own that the
# root ./... patterns never descend into: it calls the data layer's T = Row
# API (dataset.FromRows, mdf.MapRows, Partition.Rows) and compares every
# job's choose selections, output checksums and virtual time at seed 1 with
# its committed goldens, so a change that breaks either shows here and not
# first in a benchmark run. A few seconds. Part of ci.
hostbench-check:
	$(GO) vet -C benchmarks ./...
	$(GO) test -C benchmarks ./...

# mutate-short runs the committed mutant list, internal/mutate/rows.go: each
# row is an exact edit of one source file, tested with go test -short
# -overlay on the row's packages so that the tree is never edited, and it
# must be caught by a test the row names. A row names tests and not only
# packages: a package also fails for reasons that are not the mutant (a build
# error, a timing flake), and the names record which test holds which fact,
# so a test may be merged or deleted only where every row it catches is
# still caught by another. Not tier-1 (minutes, not seconds); tier-1's
# TestRowsApply checks that every row still applies. Part of ci.
mutate-short:
	$(GO) run ./internal/mutate

# ci is the gate a change must pass before merging.
ci: vet lint specvet build race race-short exp-plain chaos-short crash-short bench-smoke hostbench-check mutate-short

clean:
	$(GO) clean ./...
