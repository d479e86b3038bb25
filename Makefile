# Repro build/test entry points.  Everything here is plain Go tooling;
# the scripts under scripts/ are POSIX sh.

GO ?= go

.PHONY: build test vet lint lint-vet race bench bench-check smoke smoke-trace smoke-store check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet the whole module; the CI gate alongside test.
vet:
	$(GO) vet ./...

# lint runs cmd/reprolint, the repo's own eight-analyzer suite:
# keycomplete, determinism, strictdecode, nilrecorder, ctxflow,
# goroleak, streamdone and hotpath (see README, "Static analysis").
# Any finding fails the build; -timings prints per-analyzer wall time
# to stderr so a slow analyzer is visible in CI logs.
lint:
	$(GO) run ./cmd/reprolint -timings ./...

# lint-vet runs the same suite through `go vet -vettool=`, proving the
# tool still speaks cmd/go's unit-checking protocol.
lint-vet:
	$(GO) build -o $(CURDIR)/.reprolint.bin ./cmd/reprolint
	$(GO) vet -vettool=$(CURDIR)/.reprolint.bin ./...
	rm -f $(CURDIR)/.reprolint.bin

# race-test every package with concurrent internals: the executor and
# policy registries, the server, sweep engine and the packages their
# request paths thread through, and the workflow graph and its DAX
# writer, whose finalized file views memoized workflows share.
race:
	$(GO) test -race ./internal/dag/ ./internal/dax/ ./internal/exec/ ./internal/policy/ ./internal/server/ ./internal/store/ ./internal/shard/ ./internal/sweep/ ./internal/montage/ ./internal/experiments/ ./internal/core/ ./internal/advisor/ ./cmd/reprosrv/ ./cmd/montagesim/ ./wire/

# bench runs the benchmark suites with repeats (BENCH_COUNT, default 3)
# and writes one baseline per suite at the repo root: BENCH_exec.json
# (executor + event engine), BENCH_sweep.json (sweep-engine kernel),
# BENCH_store.json (disk-store put/get/scan) and BENCH_gen.json (mosaic
# generation and workflow-graph construction).
bench:
	sh scripts/bench.sh

# bench-check is the benchmark-regression gate: re-run the suites and
# fail if any benchmark's mean ns/op regressed more than 25% against
# any committed BENCH_*.json baseline.
bench-check:
	sh scripts/bench.sh -check

# smoke boots reprosrv, POSTs a two-bundle policy tournament and
# asserts the NDJSON ranking envelope.
smoke:
	sh scripts/smoke_tournament.sh

# smoke-trace boots reprosrv, runs a traced spot scenario through both
# /v2/run surfaces and checks the telemetry families on /metrics.
smoke-trace:
	sh scripts/smoke_trace.sh

# smoke-store boots reprosrv with a store directory, computes a run,
# restarts over the same directory and asserts the warm daemon serves
# the identical bytes from disk without re-simulating; then boots a
# two-replica peered pool and asserts a sharded sweep streams the same
# bytes as a standalone daemon.
smoke-store:
	sh scripts/smoke_store.sh

check: build vet lint test race smoke smoke-trace smoke-store
