# Convenience targets for the MLQ reproduction.
GO ?= go

.PHONY: all build vet test race race-full bench bench-smoke bench-concurrency memwall repro repro-quick fuzz chaos chaos-latency chaos-repl chaos-net clean fmt lint lint-concurrency lint-sarif check loc

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Rewrite the tree into canonical formatting.
fmt:
	gofmt -w .

# Formatting, go vet, and the project-specific analyzers (see DESIGN.md
# "Static analysis & enforced invariants"). Fails if gofmt would change
# anything or mlqlint reports a finding.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/mlqlint ./...

# Only the four concurrency-invariant analyzers (lock ordering, goroutine
# lifecycles, atomic discipline, channel ownership): the fast pre-commit
# check after touching core/replica/journal/telemetry/buffercache.
lint-concurrency:
	$(GO) run ./cmd/mlqlint -only lockorder,goroutinelife,atomicdiscipline,chanowner ./...

# SARIF 2.1.0 findings log for CI inline annotations.
lint-sarif:
	$(GO) run ./cmd/mlqlint -sarif ./... > mlqlint.sarif || true

# The full local gate: what CI enforces.
check: lint test race

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The nightly full-repo race sweep: every package under the race detector
# with a hard timeout, not just the replica/telemetry subset PR CI runs.
race-full:
	$(GO) test -race -timeout 10m ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bit-rotted benchmark code
# without paying for real measurements (CI runs this).
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Concurrency scaling of the epoch/snapshot publisher versus the mutex
# baseline: the mlqbench throughput/staleness table plus the parallel
# predict and sorted-span child-lookup micro-benchmarks. All wall-clock
# numbers — machine-dependent by design, so not part of repro.
bench-concurrency:
	$(GO) run ./cmd/mlqbench -exp concurrency
	$(GO) test -run=NONE -bench='PredictParallel|ChildLookup' -benchmem . ./internal/quadtree

# The global memory wall: the migrating-hot-set experiment (the arbiter
# must beat every static model/cache split of one budget — MemWall errors
# otherwise), race coverage of the arbiter and the resizable cache, and
# the predict-path pin proving live Resize costs the hot path nothing.
memwall:
	$(GO) run ./cmd/mlqbench -exp memwall
	$(GO) test -race ./internal/budget/ ./internal/buffercache/
	$(GO) test -run=NONE -bench 'BenchmarkPredict$$|BenchmarkPredictResize$$' -benchtime 300ms .

# Regenerate every figure of the paper at full workload sizes.
repro:
	$(GO) run ./cmd/mlqbench

repro-quick:
	$(GO) run ./cmd/mlqbench -quick

# 30 seconds of coverage-guided fuzzing per binary decoder. The pattern is
# anchored: the catalog package also has FuzzRecover, and go test rejects a
# -fuzz pattern matching more than one target.
fuzz:
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 30s ./internal/quadtree
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 30s ./internal/histogram
	$(GO) test -fuzz '^FuzzRead$$' -fuzztime 30s ./internal/catalog
	$(GO) test -fuzz '^FuzzRecover$$' -fuzztime 30s ./internal/catalog
	$(GO) test -fuzz '^FuzzReplay$$' -fuzztime 30s ./internal/journal
	$(GO) test -fuzz '^FuzzTailFollow$$' -fuzztime 30s ./internal/journal
	$(GO) test -fuzz '^FuzzWireDecode$$' -fuzztime 30s ./internal/replica/nettransport

# Fault-injection sweep: the hardened feedback loop under corrupted
# observations, UDF panics, page-read failures and torn catalog writes.
chaos:
	$(GO) run ./cmd/mlqbench -exp chaos -quick

# Slow-disk sweep: retry/backoff latency charged into IO cost observations,
# Publisher journaling with replay-equivalence checks, bounded NAE
# inflation. Virtual-time latency — the sweep is fast and deterministic.
chaos-latency:
	$(GO) run ./cmd/mlqbench -exp chaoslatency -quick
	$(GO) test -fuzz '^FuzzReplay$$' -fuzztime 10s ./internal/journal

# Replication chaos: kill primaries mid-stream, partition and heal followers,
# then assert zero acked loss beyond one batch and byte-identical convergence
# across the whole replica fleet. The faults are seeded and the convergence
# assertions deterministic; the NAE and lag columns vary from run to run.
chaos-repl:
	$(GO) run ./cmd/mlqbench -exp chaosrepl -quick
	$(GO) test -race ./internal/replica/

# Replication chaos over real loopback sockets: reconnect/backoff, heartbeat
# liveness, socket-level fault injection (RST, truncation, delay) and the
# resumable bootstrap killed mid-transfer. Same convergence assertions as
# chaos-repl, carried by the TCP transport. The fuzz pass hammers the wire
# decoder the accept loops trust.
chaos-net:
	$(GO) run ./cmd/mlqbench -exp chaosnet -quick
	$(GO) test -race ./internal/replica/...
	$(GO) test -fuzz '^FuzzWireDecode$$' -fuzztime 10s ./internal/replica/nettransport

# Non-test Go source lines, leaving out the benchmark (perfbench/) and test
# fixtures (testdata/): the size figure each change reports its delta in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

clean:
	$(GO) clean ./...
