# gosst build/verify entry points.
#
#   make check      — the CI gate: vet + full tests + race on the packages
#                     with concurrency (sim kernel, parallel runtime,
#                     sweeps, fault injection) + a short fuzz pass over the
#                     config parsers and the rank-partitioning lookahead
#   make bench      — the perf gate: the event-kernel hot loop, the parallel
#                     window barrier (conservative sync modes plus the
#                     low-lookahead lattice where speculative sync must
#                     beat pairwise), the sweep scheduler
#                     at 1/2/4/8 workers and the result cache's hit and miss
#                     paths, with -benchmem, checked against the committed
#                     BENCH_baseline.json (alloc counts must not grow;
#                     ns/op within tolerance; a baseline benchmark missing
#                     from the run fails). `make check bench` is the full
#                     pre-merge gate.
#   make bench-baseline — rerun the perf benchmarks and rewrite the baseline
#   make tables     — regenerate every experiment table ("reproduce the paper")
#   make fuzz-short — a few seconds of coverage-guided fuzzing per config
#                     loader and of the config canonical hash; crashes fail
#                     the target
#   make resume-smoke — the crash-safety gate: SIGINT a journaled sweep
#                     mid-flight, resume it, and require the resumed grid to
#                     be byte-identical to an uninterrupted run. Runs inside
#                     `make check`
#   make spec-smoke — the optimistic-sync crash gate: SIGKILL a speculative
#                     multi-rank system run mid-flight, restore from its
#                     last snapshot, and require the finished summary
#                     (including rollback counters) to be byte-identical to
#                     an uninterrupted run. Runs inside `make check`
#   make cache-smoke — the warm-start gate: run a sweep twice sharing a
#                     -cache-file; the second invocation must warm-start
#                     and serve every point from the cache (misses=0,
#                     warm_starts=16) and print an identical grid, and
#                     -cache-size 0 must exit 2. Runs inside `make check`
#   make crash-smoke — the crash-point gate: enumerate every host-storage
#                     operation (write, fsync, rename, dir-fsync) of the
#                     four persistence surfaces — journaled sweep, cache
#                     warm-start file, serve job lifecycle, snapshot save —
#                     crash after each under every retention the iofault
#                     model distinguishes, and require recovery to converge
#                     byte-identically (or fail typed). Runs inside
#                     `make check`
#   make serve-smoke — the service gate: against real sst-serve processes,
#                     require a SIGTERM drain to exit 0, a kill -9 restart
#                     to converge on byte-identical results, and a full
#                     queue to shed submissions with 429 + Retry-After
#   make perfbench-check — vet and test the repo benchmark (perfbench/, its
#                     own Go module, so `go build ./...` never compiles it)
#                     against the current sst API. Runs inside `make check`
#   make soak       — the memory-discipline gate: serve 250 journaled jobs
#                     through one resident server and require flat heap and
#                     goroutine counts plus full arena reuse, with a heap
#                     profile left in bin/soak.mprof for pprof. The short
#                     mode (100 jobs, `make soak-short`) runs inside
#                     `make check`

GO ?= go
FUZZTIME ?= 5s

# The perf-gate benchmarks: the steady-state event kernel (internal/sim) and
# the concurrent sweep scheduler (root package). -count and the regexes are
# shared between `bench` and `bench-baseline` so the two always measure the
# same thing.
BENCHES = $(GO) test -run='^$$' -bench='^BenchmarkEngineHotLoop$$' -benchmem ./internal/sim && \
          $(GO) test -run='^$$' -bench='^BenchmarkParallelWindow$$' -benchmem ./internal/par && \
          $(GO) test -run='^$$' -bench='^BenchmarkSweep(Workers|CacheHit|CacheMiss)$$' -benchmem .

# The memory-discipline contract, committed into BENCH_baseline.json as
# absolute hard ceilings by bench-baseline and enforced by every `make
# bench`: the warm-arena sweep stays ~10-60x below the pre-arena numbers
# (88,572,996 B/op and 1,869,553 allocs/op) however the baseline is
# regenerated, and the cold cache-miss path cannot quietly bloat either.
# The conservative PDES window barrier allocates nothing per window; its
# ceiling is 1 because 0 means "no ceiling" to benchcheck, and a closure or
# timer per window would cost several allocs/op.
BENCH_CEILINGS = -max-bytes 'BenchmarkSweepWorkers/workers=1=9000000,BenchmarkSweepWorkers/workers=2=9000000,BenchmarkSweepWorkers/workers=4=9000000,BenchmarkSweepWorkers/workers=8=9000000,BenchmarkSweepCacheMiss=60000000' \
                 -max-allocs 'BenchmarkSweepWorkers/workers=1=32000,BenchmarkSweepWorkers/workers=2=32000,BenchmarkSweepWorkers/workers=4=32000,BenchmarkSweepWorkers/workers=8=32000,BenchmarkSweepCacheMiss=36000,BenchmarkParallelWindow/sync=global=1,BenchmarkParallelWindow/sync=pairwise=1'

.PHONY: build test vet race check bench bench-baseline tables fuzz-short resume-smoke cache-smoke serve-smoke spec-smoke crash-smoke soak soak-short perfbench-check

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package so accidental
# inter-test state dependencies surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The sweep scheduler (internal/core), the PDES runtime (internal/par), the
# event kernel they drive (internal/sim), the fault injectors that hook
# all three (internal/fault), the shared result cache the sweep workers
# probe concurrently (internal/cache), the sweep service's worker pool
# and admission queue (internal/serve) and the storage fault model every
# sweep worker writes its journal through (internal/iofault) are the only
# places goroutines touch shared structures; the race detector must stay
# clean there.
race:
	$(GO) test -race ./internal/sim/... ./internal/par/... ./internal/core/... ./internal/fault/... ./internal/cache/... ./internal/serve/... ./internal/iofault/...

# Coverage-guided fuzzing of the AMM JSON loaders (arbitrary input must
# produce a validated config or an error, never a panic or a NaN/Inf/zero
# value the simulator would choke on later), of the canonical config hash
# the result cache keys on (stable across a JSON round trip, sensitive to
# load-bearing fields) and of the rank-partitioning
# path (the derived lookahead matrix must equal true shortest paths and
# zero-latency cross-rank links must be rejected by name).
fuzz-short:
	$(GO) test ./internal/config -run='^$$' -fuzz=FuzzLoadMachine -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/config -run='^$$' -fuzz=FuzzLoadSystem -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/config -run='^$$' -fuzz=FuzzConfigHash -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/par -run='^$$' -fuzz=FuzzPartitionLookahead -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/par -run='^$$' -fuzz=FuzzSpeculativeReplay -fuzztime=$(FUZZTIME)

check: build vet test race fuzz-short crash-smoke soak-short serve-smoke spec-smoke resume-smoke cache-smoke perfbench-check

# perfbench is a separate module (it imports sst through a replace
# directive), so the root build and tests never see it: an API change in
# cache or core could break the benchmark unnoticed without this target.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The crash-point gate: every test named TestCrashPoints* drives the
# internal/iofault exploration harness over one persistence surface —
# the atomic-replace helper itself, the journaled sweep, the cache
# warm-start file, the serve job lifecycle and the snapshot save — and
# asserts recovery converges at every enumerated crash, under every
# retention variant.
crash-smoke:
	$(GO) test -run='^TestCrashPoints' -count=1 ./internal/iofault/ ./internal/core/ ./internal/cache/ ./internal/serve/ ./cmd/sst/

# End-to-end crash-safety check of the resumable sweep path: run the grid
# once clean for reference, kill a journaled single-worker run mid-flight
# with SIGINT (exit 130; 0 if it won the race and finished), then resume
# from the journal and require the grid CSV to be byte-identical to the
# reference. The grid table carries only simulated quantities, so identical
# means field-for-field equal, not merely close.
RESUME_ARGS = -scale small -apps stream,gups -techs ddr3-1333,gddr5-4000 \
              -widths 1,2,4,8 -table grid -format csv

resume-smoke:
	$(GO) build -o bin/sst-dse ./cmd/sst-dse
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst-dse $(RESUME_ARGS) >"$$tmp/ref.csv" && \
	{ timeout --preserve-status -s INT -k 5 0.4 ./bin/sst-dse -j 1 -journal "$$tmp/sweep.jsonl" $(RESUME_ARGS) \
	    >/dev/null 2>&1; rc=$$?; [ $$rc -eq 130 ] || [ $$rc -eq 0 ] || \
	    { echo "resume-smoke: interrupted run exited $$rc, want 130 (or 0)"; exit 1; }; } && \
	./bin/sst-dse -j 1 -journal "$$tmp/sweep.jsonl" -resume $(RESUME_ARGS) >"$$tmp/resumed.csv" && \
	cmp "$$tmp/ref.csv" "$$tmp/resumed.csv" && \
	echo "resume-smoke: resumed grid identical to uninterrupted run"

# The perf gate runs vet and the concurrency race subset first so a data
# race can never hide behind a good-looking number.
# End-to-end warm-start check of the persistent result cache: run the grid
# once with a -cache-file (all misses), then again from a fresh process
# sharing the file. The second run must re-simulate nothing — its stderr
# summary shows misses=0, one hit per design point and one warm start per
# stored point — and its grid CSV must be byte-identical to the first
# run's. A -cache-size of 0 must be refused as a configuration error
# (exit 2).
cache-smoke:
	$(GO) build -o bin/sst-dse ./cmd/sst-dse
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst-dse -cache-file "$$tmp/results.jsonl" $(RESUME_ARGS) \
	    >"$$tmp/cold.csv" 2>"$$tmp/cold.err" && \
	grep -q 'cache policy=.* hits=0 misses=16 ' "$$tmp/cold.err" || \
	    { echo "cache-smoke: first run summary wrong:"; cat "$$tmp/cold.err"; exit 1; } && \
	./bin/sst-dse -cache-file "$$tmp/results.jsonl" $(RESUME_ARGS) \
	    >"$$tmp/warm.csv" 2>"$$tmp/warm.err" && \
	grep -q 'cache policy=.* hits=16 misses=0 ' "$$tmp/warm.err" || \
	    { echo "cache-smoke: warm run re-simulated:"; cat "$$tmp/warm.err"; exit 1; } && \
	grep -q 'cache policy=.* warm_starts=16$$' "$$tmp/warm.err" || \
	    { echo "cache-smoke: warm run did not warm-start 16 points:"; cat "$$tmp/warm.err"; exit 1; } && \
	cmp "$$tmp/cold.csv" "$$tmp/warm.csv" && \
	{ ./bin/sst-dse -cache -cache-size 0 $(RESUME_ARGS) >/dev/null 2>"$$tmp/size.err"; \
	  test $$? -eq 2 || { echo "cache-smoke: -cache-size 0 did not exit 2:"; cat "$$tmp/size.err"; exit 1; }; } && \
	echo "cache-smoke: warm-started grid identical, zero re-simulation"

# End-to-end crash check of the optimistic (Time Warp) sync path: run a
# speculative 2-rank system simulation sliced into periodic snapshots for
# reference, SIGKILL an identical run mid-flight (exit 137; 0 if it won
# the race and finished), restore from the snapshot it left behind, and
# require the finished summary — simulated time, message totals, window
# and rollback counters — to be byte-identical to the uninterrupted run.
# The reference is sliced with the same -snapshot-every so both runs
# commit speculation at the same barriers.
SPEC_SMOKE_ARGS = -system configs/system-torus-small.json -par 2 -sync speculative -snapshot-every 500us

spec-smoke:
	$(GO) build -o bin/sst ./cmd/sst
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' 0 && \
	./bin/sst $(SPEC_SMOKE_ARGS) -snapshot-out "$$tmp/ref.snap" >"$$tmp/ref.out" && \
	{ timeout --preserve-status -s KILL -k 5 0.8 ./bin/sst $(SPEC_SMOKE_ARGS) -snapshot-out "$$tmp/run.snap" \
	    >/dev/null 2>&1; rc=$$?; [ $$rc -eq 137 ] || [ $$rc -eq 0 ] || \
	    { echo "spec-smoke: killed run exited $$rc, want 137 (or 0)"; exit 1; }; } && \
	./bin/sst $(SPEC_SMOKE_ARGS) -restore "$$tmp/run.snap" -snapshot-out "$$tmp/run.snap" >"$$tmp/restored.out" && \
	cmp "$$tmp/ref.out" "$$tmp/restored.out" && \
	echo "spec-smoke: restored speculative run identical to uninterrupted run"

# End-to-end crash-tolerance check of the sweep service; the three
# scenarios live in tools/serve_smoke.sh (graceful drain, kill -9
# recovery with byte-identical results, 429 load shedding).
serve-smoke:
	$(GO) build -o bin/sst-serve ./cmd/sst-serve
	@sh tools/serve_smoke.sh bin/sst-serve

# The soak gate: TestServerSoak streams real simulation jobs through one
# resident Server and asserts flat heap/goroutines and full arena reuse.
# The full run leaves a heap profile for `go tool pprof bin/soak.mprof`.
soak:
	@mkdir -p bin
	$(GO) test -run='^TestServerSoak$$' -count=1 -v -memprofile=soak.mprof -outputdir=bin ./internal/serve

soak-short:
	$(GO) test -run='^TestServerSoak$$' -short -count=1 ./internal/serve

bench: vet race
	{ $(BENCHES); } | $(GO) run ./tools/benchcheck -baseline BENCH_baseline.json

bench-baseline:
	{ $(BENCHES); } | $(GO) run ./tools/benchcheck -baseline BENCH_baseline.json -update $(BENCH_CEILINGS)

tables:
	$(GO) test -bench=. -benchtime=1x
