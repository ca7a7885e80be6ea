# Tier-1 verification plus the race and benchmark passes, one target each.
# `make check` is what CI should run; `make bench` updates the
# BENCH_admission.json performance trajectory.

GO ?= go

.PHONY: all build vet fmt-check test test-race roundbench-test bench bench-quick smoke faults check clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing the files, when any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# -shuffle=on randomizes test order so accidental inter-test state
# dependencies surface under the same pass that catches data races.
test-race:
	$(GO) test -race -shuffle=on ./...

# The round benchmark is a nested module, so the root `go test ./...`
# never compiles it; this vets and tests it against the current tree.
roundbench-test:
	cd roundbench && $(GO) vet ./... && $(GO) test ./...

# Runs the admission benchmark suite and appends the measurements
# (op, ns/op, allocs/op, git rev, date, solver telemetry) to
# BENCH_admission.json; the schema is documented in BENCH_SCHEMA.md.
bench:
	$(GO) run ./cmd/mzbench -v -out BENCH_admission.json

# CI smoke for the round-path hot loops: runs the ClusterAdmit (with
# migration enabled), ClusterMigrate, SLO-audit, JournalAppend, and
# HistorySample benchmarks, gates each on its latency/0-alloc budget, and
# validates the existing BENCH_admission.json trajectory against
# BENCH_SCHEMA.md without appending a run.
bench-quick:
	$(GO) run ./cmd/mzbench -quick -v -out BENCH_admission.json

# Runs mzserver with -listen and curls the live telemetry endpoints.
smoke:
	sh scripts/smoke.sh

# Drives mzserver through a scripted disk slowdown with graceful
# degradation on and asserts the degrade/shed/restore lifecycle end to end.
faults:
	sh scripts/faults.sh

check: build vet fmt-check test test-race roundbench-test

clean:
	$(GO) clean ./...
