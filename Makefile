# Convenience targets for the temporalir repository.

GO ?= go

.PHONY: all build test vet lint invariants allocgate bench benchmem microbench race fuzz examples experiments clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-wide suite; ./... includes the linter's own packages.
lint:
	$(GO) run ./cmd/irlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The packages whose tests carry runtime assertions (-tags invariants).
INVARIANT_PKGS = . ./internal/domain ./internal/postings ./internal/hint ./internal/tifhint ./internal/core ./internal/sharding ./internal/maint

invariants:
	$(GO) test -tags invariants $(INVARIANT_PKGS)

# The serving benchmark (benchmark/, gated by BENCHMARK.json): one run
# of each workload.
bench:
	for w in lib_point lib_methods http_point http_mixed; do bash benchmark/run.sh -workload $$w -seed 1 || exit 1; done

# The packages with hot-path allocation budgets (BENCH_BUDGET.json).
# -p 1 keeps the in-process benchmarks off shared cores; -count=1
# defeats test caching.
ALLOC_PKGS = ./internal/model ./internal/postings ./internal/hint ./internal/tifhint ./internal/route ./internal/tenant ./internal/rank ./internal/core ./internal/tif ./internal/slicing ./internal/sharding ./internal/server

# The allocation-budget gate: every budget in BENCH_BUDGET.json holds.
allocgate:
	$(GO) test -run TestAllocBudget -count=1 -p 1 $(ALLOC_PKGS)

# Re-measure the budgets, then re-run the gate against the fresh numbers.
benchmem:
	ALLOC_BUDGET_RECORD=1 $(GO) test -run TestAllocBudget -count=1 -p 1 $(ALLOC_PKGS)
	$(MAKE) allocgate

# Full Go microbenchmark sweep (slow; not part of the gate).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Every fuzz target, FUZZTIME each (go test runs one -fuzz target per
# package invocation).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz=FuzzSortIDs -fuzztime=$(FUZZTIME) ./internal/model/
	$(GO) test -fuzz=FuzzTokenize -fuzztime=$(FUZZTIME) ./internal/textutil/
	$(GO) test -fuzz=FuzzIntersect -fuzztime=$(FUZZTIME) ./internal/postings/
	$(GO) test -fuzz=FuzzContainerParity -fuzztime=$(FUZZTIME) ./internal/postings/
	$(GO) test -fuzz=FuzzGallopParity -fuzztime=$(FUZZTIME) ./internal/postings/
	$(GO) test -fuzz=FuzzDomainRoundTrip -fuzztime=$(FUZZTIME) ./internal/domain/
	$(GO) test -fuzz=FuzzLoadEngine -fuzztime=$(FUZZTIME) .
	$(GO) test -fuzz=FuzzSearchRequest -fuzztime=$(FUZZTIME) ./internal/server/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/archive
	$(GO) run ./examples/sessions
	$(GO) run ./examples/baskets
	$(GO) run ./examples/ranked

# Reproduce every paper artifact at laptop scale into results/.
experiments:
	$(GO) build -o bin/irbench ./cmd/irbench
	mkdir -p results
	bin/irbench -exp all -scale 0.02 -queries 500 | tee results/all.txt

clean:
	rm -rf bin
