# Developer entry points; CI runs `make ci`.

GO ?= go

.PHONY: build vet test test-race chaos crash soak diff-oracle diff-oracle-quick semoracle semoracle-quick coverage-floor docs-check loc bench bench-scaling work-json scenario-json profile perfbench fuzz ci

build:
	$(GO) build ./...

# vet also type-checks the benchmark harness, a module of its own that
# `./...` never reaches, so an Options or Stats change that breaks it fails
# here rather than at benchmark time (built to /dev/null: nothing written).
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) build -o /dev/null ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test: build vet
	$(GO) test ./...

# The concurrency suite (sharded enumeration, worker pool, ordered merge)
# only proves state ownership under the race detector. -short trims the
# mid-size oracle/regression instances whose deadline-budgeted runs would
# dominate the race sweep without adding concurrency coverage (the full
# instances run race-free in `test` and `diff-oracle`). The enumeration,
# the merge machinery and the root package's public-API tests run at
# GOMAXPROCS 1 and 4, so steals and merge drains also interleave under a
# preemptive multi-P schedule; DefaultOptions leaves Parallelism at 0 (one
# worker per GOMAXPROCS), so -cpu 4 drives the root tests through the
# sharded enumeration. internal/dfg rides along for the closures a frozen
# graph builds on first use under sync.Once (TestClosuresOnFirstUse).
test-race:
	$(GO) test -race -short -cpu 1,4 ./internal/parallel/ ./internal/enum/ ./internal/dfg/
	$(GO) test -race -short ./internal/bench/
	$(GO) test -race -cpu 1,4 .

# Fail-safe certification: the deterministic fault-injection sweep
# (internal/enum chaos_test.go, failure_test.go; internal/faultinject) under
# the race detector. Every injected panic, delay, budget hit and
# cancellation must end in a bit-identical serial prefix or a clean typed
# error — the hard -timeout turns any hang into a failure instead of
# a stuck CI job. The enum step runs at GOMAXPROCS 1 and 4, so the injected
# faults also land under preemptive multi-P schedules.
chaos:
	$(GO) test -race -cpu 1,4 -run 'TestChaos|TestFailure' ./internal/enum/ -timeout 10m -count 1
	$(GO) test -race ./internal/faultinject/ -timeout 2m -count 1

# Crash-resume certification: the kill-and-resume matrix under the race
# detector — an injected panic at every protocol site of a checkpointing
# run (including inside the snapshot writer itself), then a resume from the
# snapshot the contained crash left behind, at the other worker count;
# crashed prefix + resumed suffix must be bit-identical to the serial
# order. The enum step runs at GOMAXPROCS 1 and 4, so the resume seam is
# also exercised under preemptive multi-P schedules. Runs alongside the
# snapshot-format compatibility suite (committed golden file, version skew,
# truncation/corruption, round-trip fuzz seeds). The hard -timeout turns a
# hung resume into a failure.
crash:
	$(GO) test -race -cpu 1,4 -run 'TestCrashResume|TestResume|TestCheckpoint' ./internal/enum/ -timeout 10m -count 1
	$(GO) test -race ./internal/checkpoint/ -timeout 2m -count 1

# Service-layer chaos under load: the session soak (internal/session
# soak_test.go) under the race detector — a saturated service absorbing a
# mixed storm of healthy, poison, oversized, over-budget, canceled and
# HTTP-streaming requests while delay injections widen the race windows at
# the session fault sites. Healthy results must be bit-identical to the
# serial reference, every bad-request class must fail with its typed
# error, the memory budget must never be exceeded (with eviction actually
# observed), and a durable run parked by shutdown must resume bit-exactly
# on a fresh service. The rest of the session suite (cache, admission,
# HTTP mapping) rides along, at GOMAXPROCS 1 and 4; the hard -timeout
# turns any hang into a failure.
soak:
	$(GO) test -race -cpu 1,4 ./internal/session/ -timeout 10m -count 1

# Mid-size completeness evidence: diff the polynomial enumeration against
# the pruned-exhaustive oracle on the pinned gap instances (n=140/seed 5 →
# 4 565 cuts, n=220/seed 17 → 7 891) and fresh random blocks up to n ≈ 240,
# both gap instances and the trees of depth 6 and 7 at (Nin, Nout) = (6,2),
# (8,2) and (6,3), and the butterflies (TestMidSizeOracleAlongNin, about
# 90 s), plus the bit-for-bit
# sequence-identity regression (including the ~25 s
# basic-algorithm cross-check at n=220) and the work record's heavy rows
# (TestWorkRecord, about 45 s more). diff-oracle-quick is the CI
# version: oracle comparisons only, at a budget that still completes every
# instance on the recording machine.
diff-oracle:
	POLYISE_ORACLE_BUDGET=10m $(GO) test ./internal/enum/ -run 'MidSizeOracle|GapRegression|WorkRecord' -v -timeout 30m -count 1

diff-oracle-quick:
	POLYISE_ORACLE_BUDGET=90s $(GO) test ./internal/enum/ -run 'MidSizeOracle' -timeout 15m -count 1

# Semantic certification: the interpreter cut-semantics oracle and the
# exhaustive selection reference over the pinned corpora (internal/
# semoracle). The full run certifies every cut of the gap-regression
# corpus (4 565 + 7 891 cuts, 8 random environments each, seeded-memory
# load/store ordering included); semoracle-quick is the CI version at a
# budget where an overrun is an explicit skip (inconclusive), never a
# hidden pass.
semoracle:
	POLYISE_ORACLE_BUDGET=10m $(GO) test ./internal/semoracle/ -v -timeout 30m -count 1

semoracle-quick:
	POLYISE_ORACLE_BUDGET=60s $(GO) test ./internal/semoracle/ -timeout 10m -count 1

# Coverage ratchet for the packages the oracle layer certifies (interp,
# ise, multidom, exprc): new code there cannot land untested.
coverage-floor:
	./scripts/check_coverage.sh

# Docs-drift gate: every backticked Go identifier and file path referenced
# by docs/ALGORITHM.md and README.md must still exist in the tree, so the
# paper-to-code map and the front page cannot silently rot.
docs-check:
	./scripts/check_docs_refs.sh docs/ALGORITHM.md README.md

# Code size: non-blank, non-comment lines of the non-test Go files, per
# package of the main module and in total (perfbench, a module of its own,
# is not counted).
loc:
	./scripts/loc.sh

# Paper-figure reproductions plus the serial-vs-parallel speedup pair
# (BenchmarkParallelEnumerate, BenchmarkCorpusCuts).
bench:
	$(GO) test -bench=. -benchtime=1x .
	$(GO) test -bench=. -benchtime=1x ./internal/bench/

# Scaling certification: BenchmarkParallelEnumerate on the n=220 gap
# instance at 1, 2, 4 and 8 CPUs; fails unless its parallel run at 8 CPUs
# reaches 4x the serial run's speed there. A speedup cannot be certified
# on fewer than 8 schedulable CPUs, so the target refuses (exit 1) instead
# of recording a vacuous pass.
bench-scaling:
	@cpus=$$(nproc); if [ $$cpus -lt 8 ]; then echo "bench-scaling: $$cpus CPUs; certifying the 4x bar needs 8"; exit 1; fi
	$(GO) test -run '^$$' -bench BenchmarkParallelEnumerate -cpu 1,2,4,8 . | tee /dev/stderr | \
		awk '/ParallelEnumerate\/serial-8[ \t]/{s=$$3} /ParallelEnumerate\/parallel-8[ \t]/{p=$$3} \
		END{if (!s || !p) {print "bench-scaling: no 8-CPU rows"; exit 1} \
		printf "bench-scaling: %.2fx over serial at 8 CPUs, want >= 4x\n", s/p; exit !(s >= 4*p)}'

# Re-record the exact work record (internal/enum/testdata/work.json): per
# block and port budget, every Stats counter but Steals, the worker's work
# counts and, for three blocks, serial allocs/op. TestWorkRecord (part of
# `make test`) compares it by exact equality (allocs/op within +128), so
# regenerate it (and commit the diff) whenever the search's work changes
# on purpose. The heavy rows need POLYISE_ORACLE_BUDGET; about a minute.
work-json:
	POLYISE_ORACLE_BUDGET=10m $(GO) test ./internal/enum/ -run TestWorkRecord -update -count 1

# Re-record the end-to-end scenario record (BENCH_PR9.json): the pinned
# pipeline scenarios (enumerate -> select -> Verilog -> interpreter
# re-check) with every field deterministic. Like the work record it is
# machine-independent — TestScenariosRunCleanAndDeterministic
# (internal/bench, part of `make test`) compares it by exact equality, so
# regenerate it (and commit the diff) whenever a pipeline stage
# intentionally changes behaviour.
scenario-json:
	$(GO) test ./internal/bench/ -run TestScenariosRunCleanAndDeterministic -update

# Profiling harness: run the root package's enumeration benchmarks for
# 3 s each — the 220-node instance that dominates the serial profile
# (serial and sharded, BenchmarkParallelEnumerate) and the figure 5 pair
# (BenchmarkFigure5),
# long enough for line-level reading — under pprof and drop
# cpu.prof/mem.prof in the working tree, then profile the whole op of the
# `deep` workload (parse, enumerate, select, Verilog, re-check) on its four
# blocks serially (BenchmarkDeepOp) into deep.prof (do not commit them),
# so the layers around the search show next to it. It ends by printing
# the top 25 nodes of deep.prof by cumulative time, the layer shares
# EXPERIMENTS.md and ROADMAP.md cite;
# EXPERIMENTS.md ("How to read a polyise profile") explains what the hot
# symbols mean.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelEnumerate|BenchmarkFigure5' -benchtime 3s -cpuprofile cpu.prof -memprofile mem.prof -o polyise.test .
	GOMAXPROCS=1 $(GO) test -run '^$$' -bench BenchmarkDeepOp -benchtime 20x -cpuprofile deep.prof -o polyise.test .
	$(GO) tool pprof -top -cum -nodecount 25 polyise.test deep.prof

# The benchmark's layer split in one command: one `--trace 1` run of
# perfbench/run.py per workload (deep, pipeline, stream) at a fixed seed.
# The last line of each run is a JSON object with the per-layer times
# (build/enum/select/rtl/check/first-cut ms) and the exact work counts;
# perfbench/README.md explains them. Override PERFBENCH_SEED or
# PERFBENCH_SECONDS (per run) on the command line.
PERFBENCH_SEED ?= 1
PERFBENCH_SECONDS ?= 20

perfbench:
	for w in deep pipeline stream; do \
		python3 perfbench/run.py --workload $$w --seed $(PERFBENCH_SEED) --seconds $(PERFBENCH_SECONDS) --trace 1 || exit 1; \
	done

# Short fuzz runs over the untrusted entry points: the graphio parser, the
# expression compiler, the interpreter and the snapshot decoder (resume
# reads snapshot files from disk). The committed seed corpora under each
# package's testdata/ always run as part of plain `make test`. Minimizing a
# new interesting input is capped at 5 s (the default, 60 s, outlasts the
# whole 30 s budget), so the budget goes to executions.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s -fuzzminimizetime=5s ./internal/graphio/
	$(GO) test -fuzz=FuzzExprCompile -fuzztime=30s -fuzzminimizetime=5s ./internal/exprc/
	$(GO) test -fuzz=FuzzInterpRun -fuzztime=30s -fuzzminimizetime=5s ./internal/interp/
	$(GO) test -fuzz=FuzzCheckpoint -fuzztime=30s -fuzzminimizetime=5s ./internal/checkpoint/

ci: test test-race chaos crash soak docs-check diff-oracle-quick semoracle-quick coverage-floor
