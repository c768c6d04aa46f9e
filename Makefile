GO ?= go

.PHONY: all help build test vet lint specvet race race-short fuzz-short chaos-short chaos crash-short bench-baseline bench-smoke hostbench-check ci clean

all: build

# help lists the targets worth knowing about.
help:
	@echo "mdf targets:"
	@echo "  build             compile everything"
	@echo "  test              go test ./..."
	@echo "  vet               go vet ./..."
	@echo "  lint              mdf lint: determinism, unit and concurrency rules (exits nonzero on findings)"
	@echo "  specvet           mdf plan: canonical-form + plan-verifier gate on every committed spec"
	@echo "  race              full test suite under the race detector"
	@echo "  race-short        focused -race -short -count=1 gate on the concurrent packages (service, engine, scheduler, chaos; mdf, spec, workload/..., whose functions run on the engine's pool goroutines; dataset, graph, memorymgr, whose structures those goroutines read)"
	@echo "  fuzz-short        brief fuzz runs of the JSON parsers"
	@echo "  chaos-short       deterministic 50-trial chaos sweep, run twice and compared"
	@echo "  chaos             long randomized chaos sweep (CHAOS_SEED, CHAOS_TRIALS)"
	@echo "  crash-short       kill-and-restart sweep at every journal record boundary, run twice and compared"
	@echo "  bench-baseline    regenerate BENCH_*.json once; mdf stat names any series past MDFSTAT_THRESHOLD, then fail on byte drift"
	@echo "  bench-smoke       compile every Benchmark* under internal/ and run each for one iteration"
	@echo "  hostbench-check   vet and test the host-time benchmark module (benchmarks/), which ./... does not reach"
	@echo "  ci                the merge gate: vet lint specvet build race race-short chaos-short crash-short bench-baseline bench-smoke hostbench-check"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs `mdf lint`, the repo's determinism, unit-discipline and
# concurrency-safety static analyzer (see ARCHITECTURE.md "Determinism
# rules", "Unit types and semantic rules" and "Concurrency rules"). It
# exits nonzero on any finding; -stale-allows additionally audits
# suppression comments.
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
# evaluator constructors of mdf and spec and the four workloads (dnn's
# package-level example-set cache is shared by every job a process builds or
# runs). The engine's and the chaos harness's serial-equals-pooled tests set
# GOMAXPROCS(4) themselves and size their inputs above the engine's gate, so
# the pool is reached on a single-CPU runner too; the engine's run the
# functions of the other packages there. dataset, graph and memorymgr are in
# for what those goroutines read of them (partition blocks, Stage.String's
# lazy label) and for their reference models (the Alg. 2 transcription, the
# edge map; the sort-based top-k is mdf's), none of which -short skips.
# -count=1 defeats the test cache so the race detector actually runs on every
# invocation. Part of ci.
race-short:
	$(GO) test -race -short -count=1 ./internal/service ./internal/engine ./internal/scheduler ./internal/chaos \
		./internal/mdf ./internal/spec ./internal/workload/... \
		./internal/dataset ./internal/graph ./internal/memorymgr

# fuzz-short runs the JSON-parser fuzz targets briefly on top of their
# checked-in corpora (testdata/fuzz); longer runs use -fuzztime directly.
fuzz-short:
	$(GO) test ./internal/spec -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/spec -run='^$$' -fuzz=FuzzCanonical -fuzztime=5s
	$(GO) test ./internal/faults -run='^$$' -fuzz=FuzzParse -fuzztime=5s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzJournalReplay -fuzztime=5s

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

# bench-baseline regenerates every committed BENCH_<exp>.json baseline in
# quick mode, once, and checks the result twice. First `mdf stat` diffs each
# artifact against the committed baseline and fails when a series
# regresses past the threshold (default 5%), naming the series that moved
# — so a drift shows *what* regressed, not just *that* bytes changed.
# Then every file must compare byte-for-byte: a performance- or
# determinism-affecting change must regenerate the baselines in the same
# commit. Part of ci.
MDFSTAT_THRESHOLD ?= 5
bench-baseline: build
	rm -rf .bench-prev && mkdir .bench-prev && cp BENCH_*.json .bench-prev/
	$(GO) run ./cmd/mdf bench -exp all -quick -seeds 1 -json
	@for f in BENCH_*.json; do \
		$(GO) run ./cmd/mdf stat -threshold $(MDFSTAT_THRESHOLD) .bench-prev/$$f $$f || exit 1; \
	done
	@for f in BENCH_*.json; do cmp $$f .bench-prev/$$f || exit 1; done
	@rm -rf .bench-prev

# bench-smoke compiles the layer benchmarks that live next to the code and
# runs each for a single iteration: no other gate builds a Benchmark*, so
# without it one that no longer compiles, or fails on its first iteration,
# would go unnoticed until someone needs its number. Part of ci.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# hostbench-check vets and tests benchmarks/, a module of its own that the
# root ./... patterns never descend into: it calls the data layer's boxed
# API (dataset.FromRows, mdf.MapRows, Partition.Rows) and compares every
# job's choose selections, output checksums and virtual time at seed 1 with
# its committed goldens, so a change that breaks either shows here and not
# first in a benchmark run. A few seconds. Part of ci.
hostbench-check:
	$(GO) vet -C benchmarks ./...
	$(GO) test -C benchmarks ./...

# ci is the gate a change must pass before merging.
ci: vet lint specvet build race race-short chaos-short crash-short bench-baseline bench-smoke hostbench-check

clean:
	$(GO) clean ./...
