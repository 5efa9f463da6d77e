# Developer workflow for the gristgo reproduction. `make check` is the
# tier-1 gate plus vet, the domain linters, and a race-detector pass over
# the whole module (the SPMD runtime, exchange layer and drivers are all
# concurrent).

GO ?= go

.PHONY: check build vet lint lint-baseline test pin pin-update profile-step race race-serve fuzz-smoke loc ledger benchmark chaos chaos-serve bench-obs bench-check

check: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The five domain analyzers (precisioncheck, hotpathalloc,
# sendownership, determinism, locksafety — see DESIGN.md "Statically
# enforced invariants"). gristlint exits nonzero
# on any unsuppressed diagnostic or when the tree holds more
# //lint:ignore suppressions than lint.baseline.json budgets, so `make
# check` fails when a finding appears OR when one is suppressed instead
# of fixed. To grow the budget deliberately: make lint-baseline, and
# justify the diff in review.
lint:
	$(GO) run ./cmd/gristlint -baseline lint.baseline.json ./...

lint-baseline:
	$(GO) run ./cmd/gristlint -write-baseline lint.baseline.json ./...

test:
	$(GO) test ./...

# The pinned trajectories (internal/dycore and internal/core testdata/pin):
# `pin` prints every field's difference from the pin, `pin-update`
# rewrites the pins from the current kernels — a reviewed diff, run once
# after a kernel change whose logged differences are within the bounds.
PIN = $(GO) test -count=1 -run Pinned ./internal/dycore/ ./internal/core/
pin:
	$(PIN) -v

pin-update:
	$(PIN) -update

# CPU profile of the serial G5 x 30 step, DP then MIX (8 steps each): the
# per-kernel table ROADMAP's re-anchor quotes. Binary and profiles land in
# profile/ (gitignored).
profile-step:
	@mkdir -p profile
	@for mode in DP MIX; do \
		$(GO) test -run '^$$' -bench "SerialStepG5L30/$$mode" -benchtime 8x -o profile/dycore.test \
			-cpuprofile profile/step_$$mode.prof ./internal/dycore/ && \
		$(GO) tool pprof -top -nodecount=15 profile/dycore.test profile/step_$$mode.prof; \
	done

# -short skips the minutes-long model-integration tests, which the
# race detector's ~15x slowdown would push past the test timeout; the
# plain `test` target still runs them.
race:
	$(GO) test -race -short ./...

# The serve plane's full test set (including the HTTP tests that -short
# skips) under the race detector: the query handlers, snapshot store and
# poller are the most concurrency-dense code in the repo.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/...

# Each native fuzz target for 5 s (go test -fuzz takes one target and one
# package per run). Plain `go test ./...` already replays the checked-in
# corpus under testdata/fuzz; this looks for inputs nobody wrote down. A
# crasher lands in the package's testdata/fuzz/<target>/ — commit it with
# the fix.
FUZZ = $(GO) test -run '^$$' -fuzztime 5s
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzDecode$$' ./internal/durable/
	$(FUZZ) -fuzz '^FuzzReadShard$$' ./internal/core/
	$(FUZZ) -fuzz '^FuzzManifest$$' ./internal/core/
	$(FUZZ) -fuzz '^FuzzReadRestart$$' ./internal/core/
	$(FUZZ) -fuzz '^FuzzGDFRead$$' ./internal/gdf/
	$(FUZZ) -fuzz '^FuzzQueryArgs$$' ./internal/serve/

# Non-test Go lines per internal/ package (its directory, not the
# subpackages), their total, and the lint tree on its own line (the
# framework, every analyzer package and the gristlint driver; fixtures
# excluded) — the instrument of ROADMAP aim 2: a PR that claims to
# simplify quotes this before and after.
NONTEST = -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'
loc:
	@for d in internal/*/; do printf '%7d %s\n' $$(ls $$d*.go | grep -v _test.go | xargs cat | wc -l) $$d; done; \
	printf '%7d total\n' $$(find internal $(NONTEST) | xargs cat | wc -l); \
	printf '%7d lint tree (internal/lint/** + cmd/gristlint)\n' $$(find internal/lint cmd/gristlint $(NONTEST) | xargs cat | wc -l)

# The importer ledger of ROADMAP aim 2: every internal/ package that
# nothing under cmd/, benchmark or examples/ reaches outside test files.
# The two test-support packages are the only ones allowed on it; anything
# else is wired, or deleted, in the PR that orphans it.
LEDGER_ALLOW = gristgo/internal/lint/analysistest gristgo/internal/pintest
ledger:
	@reached=$$($(GO) list -deps ./cmd/... ./benchmark ./examples/...) || exit 1; \
	echo "internal/ packages with no non-test importer:"; \
	for p in $$($(GO) list ./internal/...); do \
		echo "$$reached" | grep -qx "$$p" && continue; \
		echo "  $$p"; \
		case " $(LEDGER_ALLOW) " in *" $$p "*) ;; *) bad=1 ;; esac; \
	done; \
	if [ -n "$$bad" ]; then echo "ledger: a package other than test support has no importer: wire it or delete it" >&2; exit 1; fi

# The repository benchmark declared by BENCHMARK.json: six workloads over
# both planes, every sample in benchmark/out/result.json (see
# benchmark/README.md). Speed claims cite its (metric, workload) pairs.
benchmark:
	bash benchmark/run.sh

# The fault-injection suite under the race detector (deadline waits,
# rollback-and-replay, sentinel-driven degradation, elastic
# shrink/grow membership, the coupled dynamics + tracer runs, the
# NaN-poisoned overlap window), then the
# chaos experiment, which writes
# CHAOS_recovery.json (recovery events, injected faults, bitwise
# verdicts) and CHAOS_sentinels.json (health sentinel trip history),
# and the elastic experiment, which writes CHAOS_elastic.json
# (shrinkgrow membership timeline, repartition costs, bitwise/gate
# verdicts, overlap-vs-blocking parity) for the CI artifact upload.
chaos:
	$(GO) test -race -count=1 \
		-run 'Fault|Barrier|Deadline|Halo|Resilient|RankDeath|BitFlip|Sentinel|Shard|LatestCommitted|Fallback|NaNOutput|DegradeFor|Restart|Elastic|Rebalanced|Redistribute|SwapLayout|SetOwned|CoupledRun|PoisonedOverlap' \
		./internal/comm/ ./internal/fault/ ./internal/core/ ./internal/mlphysics/ ./internal/dycore/
	$(GO) run ./cmd/gristbench -exp chaos
	$(GO) run ./cmd/gristbench -exp elastic

# The storage-plane chaos suite under the race detector (the vfs seam,
# the fault-injecting filesystem, the durable container's corruption
# table and atomic replace, shard writes under torn renames, the sweep
# that fails every filesystem operation of each durable write path,
# quarantine/staleness/breaker behavior in the serve plane),
# then the chaosserve experiment: producer + poller + load replay per
# filesystem fault profile, writing CHAOS_serve.json (non-breaker-5xx /
# checksum / bounded-recovery verdicts) and gating it against the
# committed tolerance windows.
chaos-serve:
	$(GO) test -race -count=1 \
		-run 'FS|Vfs|OSRoundTrip|Decode|Replace|ReadFile|WriteShard|CommittedEpochs|LatestCommitted|Quarantine|Rederive|CrashRestart|Breaker|Backoff|Degraded|SnapshotStore|FailEvery' \
		./internal/vfs/ ./internal/fault/ ./internal/durable/ ./internal/core/ ./internal/serve/
	$(GO) run ./cmd/gristbench -exp chaosserve
	$(GO) run ./cmd/gristbench -check -check-files CHAOS_serve.json -baseline bench.baseline.json

# The cross-rank trace aggregation benchmark: two rebalanced runs from
# the same skewed decomposition (wall-weighted vs span-attributed cost
# feedback) plus a postmortem replay-identity check, emitting
# BENCH_obs.json, BENCH_obs_postmortem.json (per-step critical path,
# stragglers, phase attribution) and BENCH_obs_trace.json (merged
# multi-rank Chrome trace with the critical path marked).
bench-obs:
	$(GO) run ./cmd/gristbench -exp obs

# The benchmark regression gate: regenerate the obs artifacts and
# compare them against the committed per-metric tolerance windows
# (restricted to the obs artifact — the chaos-serve target gates
# CHAOS_serve.json). Widening a window is a reviewed diff on
# bench.baseline.json.
bench-check: bench-obs
	$(GO) run ./cmd/gristbench -check -check-files BENCH_obs.json -baseline bench.baseline.json
