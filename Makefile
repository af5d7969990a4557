# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Version stamp for siwa_build_info{version=...}: git describe when the
# tree has tags, else the short revision (+ -dirty); "dev" outside git.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X repro/internal/obs.Version=$(VERSION)

.PHONY: all build test race vet fmt lint lint-ignores bench bench-diff fuzz experiments examples server gateway smoke clean

all: build vet lint test

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the HTTP analysis service (ADDR overrides the listen address).
ADDR ?= :8080
server:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/siwad-server -addr $(ADDR)

# Run the cluster gateway over an existing fleet: make gateway
# BACKENDS=http://a:8080,http://b:8080 (GWADDR overrides the address).
GWADDR ?= :8090
BACKENDS ?= http://127.0.0.1:8080
gateway:
	$(GO) run -ldflags "$(LDFLAGS)" ./cmd/siwad-gateway -addr $(GWADDR) -backends $(BACKENDS)

# E2E smokes over real processes: trace propagation across tiers, then
# a brownout chaos drill (hedged requests around an injected slow wire).
smoke:
	bash scripts/trace_smoke.sh
	bash scripts/chaos_smoke.sh

# The benchmark is a nested module, so the root ./... does not reach it.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Repo-specific static analysis: the paper's infinite-wait lens turned on
# our own concurrency code (see internal/lint). Fails on any unsuppressed
# finding; //lint:ignore sites need a reason and are audited by
# lint-ignores. Also fails if any file is not gofmt-clean.
lint:
	$(GO) build -o bin/siwad-lint ./cmd/siwad-lint
	./bin/siwad-lint ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Audit every //lint:ignore suppression: file, line, analyzer, reason,
# and whether it still suppresses anything.
lint-ignores:
	$(GO) build -o bin/siwad-lint ./cmd/siwad-lint
	./bin/siwad-lint -list-ignores ./...

fmt:
	gofmt -l -w .

bench:
	$(GO) test -bench=. -benchmem

# Paired performance gate: build the pinned hot-path benchmarks at HEAD^
# and in the working tree, run the two builds alternately on this host,
# and fail if any pin's median per-round ratio exceeds 1.15
# (scripts/bench_diff.sh HEAD gates uncommitted work). About five
# minutes on a 2-vCPU VM.
bench-diff:
	bash scripts/bench_diff.sh

# Short fuzzing pass over the parser, inliner, whole pipeline and the
# replica's analyze handlers.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/lang/
	$(GO) test -fuzz=FuzzInline -fuzztime=30s ./internal/lang/
	$(GO) test -fuzz=FuzzAnalyzeNaive -fuzztime=30s .
	$(GO) test -fuzz=FuzzAnalyzeHandler -fuzztime=30s ./internal/service/

# Regenerate every EXPERIMENTS.md table (full sizes; -quick for a fast run).
experiments:
	$(GO) run ./cmd/siwad-exp

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dining
	$(GO) run ./examples/pipeline
	$(GO) run ./examples/satgadget

clean:
	$(GO) clean ./...
