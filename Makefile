# Developer workflow for the gristgo reproduction. `make check` is the
# tier-1 gate plus vet, the domain linters, and a race-detector pass over
# the whole module (the SPMD runtime, exchange layer and drivers are all
# concurrent).

GO ?= go

.PHONY: check build vet lint test pin pin-update profile-step profile-infer profile-tracer profile-ckpt profile-start profile-partition race race-serve fuzz-smoke loc ledger benchmark chaos chaos-serve bench-obs

check: build vet lint test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The two domain analyzers (precisioncheck, locksafety — see DESIGN.md
# "Statically enforced invariants"). gristlint exits nonzero on any
# finding; nothing suppresses one.
lint:
	$(GO) run ./cmd/gristlint ./...

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

# CPU profile of the batched inference engine at the benchmark's
# architecture (ResUnitCNN 5 -> 16 x 5 units, K = 3, L = 30, plus the
# ResMLP 62 -> 48 x 7) over 2,048 columns, FP64 then FP32: the per-stage
# table (im2col GEMM, Winograd, dense, the elementwise stages) an
# inference optimisation starts from. Binary and profiles land in profile/.
profile-infer:
	@mkdir -p profile
	@for mode in FP64 FP32; do \
		$(GO) test -run '^$$' -bench "ForwardG5L30/$$mode" -benchtime 5x -o profile/infer.test \
			-cpuprofile profile/infer_$$mode.prof ./internal/infer/ && \
		$(GO) tool pprof -top -nodecount=12 profile/infer.test profile/infer_$$mode.prof; \
	done

# CPU profile of one tracer transport step of all six species at the
# coupled benchmark's size (G4 x 20), serial, DP then MIX: the per-pass
# table (mass, ratio, edge, low-order, limiter, apply) a tracer
# optimisation starts from. Binary and profiles land in profile/.
profile-tracer:
	@mkdir -p profile
	@for mode in DP MIX; do \
		$(GO) test -run '^$$' -bench "TransportStepG4L20/$$mode/w1" -benchtime 50x -o profile/tracer.test \
			-cpuprofile profile/tracer_$$mode.prof ./internal/tracer/ && \
		$(GO) tool pprof -top -nodecount=12 profile/tracer.test profile/tracer_$$mode.prof; \
	done

# CPU profile of one checkpoint epoch from producer to first answer at
# the ckpt_pipeline_g6l20_r4 workload's size (G6 x 20, 4 parts): four
# WriteShard, Commit, Poll and the first point query, on the real
# filesystem (BenchmarkEpochRoundTripG6L20 in internal/serve). The table
# is focused on the epoch, leaving out the mesh and plan set-up. A CPU
# profile does not show the time fsync waits with the CPU idle; the
# benchmark's ns/op does. Binary and profile land in profile/.
profile-ckpt:
	@mkdir -p profile
	@$(GO) test -run '^$$' -bench EpochRoundTripG6L20 -benchtime 10x -o profile/serve.test \
		-cpuprofile profile/ckpt.prof ./internal/serve/ && \
	$(GO) tool pprof -top -nodecount=15 -focus 'EpochRoundTripG6L20.func1' profile/serve.test profile/ckpt.prof

# CPU profile of gristd's restart to first answer at the serve workloads'
# size (G6 x 20, 4 parts, 8 committed epochs), in gristd's order: the
# BFS-ordered mesh, then the server's tiler on its own goroutine beside
# the plan and the first Poll, which backfills every epoch on every core
# (BenchmarkDaemonStartG6 in internal/serve). The shard reads and loop
# workers run on their own goroutines, so the table is not focused on
# the benchmark; it leaves out the off-clock shard writes instead.
# Binary and profile land in profile/.
profile-start:
	@mkdir -p profile
	@$(GO) test -run '^$$' -bench DaemonStartG6 -benchtime 5x -o profile/serve.test \
		-cpuprofile profile/start.prof ./internal/serve/ && \
	$(GO) tool pprof -top -nodecount=20 -ignore 'WriteShard|Commit|InitIdealized' profile/serve.test profile/start.prof

# CPU profile of the multilevel partitioner on the BFS-ordered G6 mesh
# at the part counts a gristd restart builds: the 4-rank plan, then the
# 48-tile tiler (BenchmarkKWayG6 in internal/partition), focused on
# KWay so the off-clock mesh build is left out. Binary and profile land
# in profile/.
profile-partition:
	@mkdir -p profile
	@$(GO) test -run '^$$' -bench KWayG6 -benchtime 20x -o profile/partition.test \
		-cpuprofile profile/partition.prof ./internal/partition/ && \
	$(GO) tool pprof -top -nodecount=15 -focus 'partition.KWay' profile/partition.test profile/partition.prof

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

# The fault-injection suite under the race detector: deadline waits,
# rollback-and-replay (rank death, a sentinel-tripping bit flip),
# sentinel-driven degradation, the ML-NaN scalar fallback, elastic
# shrink/grow membership with overlap == blocking across the reshapes,
# the coupled dynamics + tracer runs, the NaN-poisoned overlap window
# and posted halo buffers. The tests hold every verdict (DESIGN.md
# "Verdicts"); nothing else is gated.
chaos:
	$(GO) test -race -count=1 \
		-run 'Fault|Barrier|Deadline|Halo|Resilient|RankDeath|BitFlip|Sentinel|Shard|LatestCommitted|Fallback|NaNOutput|DegradeFor|Restart|Elastic|Rebalanced|Redistribute|SwapLayout|SetOwned|CoupledRun|PoisonedOverlap|StartSealsPayload' \
		./internal/comm/ ./internal/fault/ ./internal/core/ ./internal/mlphysics/ ./internal/dycore/

# The storage-plane chaos suite under the race detector: the vfs seam,
# the fault-injecting filesystem, the durable container's corruption
# table and atomic replace, shard writes under torn renames, the sweep
# that fails every filesystem operation of each durable write path,
# quarantine/staleness/breaker behavior in the serve plane, and
# TestChaosServeInvariants (producer + poller + load replay per
# filesystem fault profile: zero non-breaker 5xx, zero corrupt bytes
# served, bounded recovery).
chaos-serve:
	$(GO) test -race -count=1 \
		-run 'FS|Vfs|OSRoundTrip|Decode|Replace|ReadFile|WriteShard|CommittedEpochs|LatestCommitted|Quarantine|Rederive|CrashRestart|Breaker|Backoff|Degraded|SnapshotStore|FailEvery|ChaosServe' \
		./internal/vfs/ ./internal/fault/ ./internal/durable/ ./internal/core/ ./internal/serve/

# The cross-rank trace aggregation reading, ungated: two rebalanced runs
# from the same skewed decomposition (wall-weighted vs span-attributed
# cost feedback) plus a postmortem replay-identity check, emitting
# BENCH_obs.json, BENCH_obs_postmortem.json (per-step critical path,
# stragglers, phase attribution) and BENCH_obs_trace.json (merged
# multi-rank Chrome trace with the critical path marked). Its imbalances
# and wait share read wall clocks; the tests hold what is deterministic.
bench-obs:
	$(GO) run ./cmd/gristbench -exp obs
