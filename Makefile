# Convenience targets for the temporalir repository.

GO ?= go

.PHONY: all build test vet lint invariants bench benchmem microbench race fuzz examples experiments clean

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

invariants:
	$(GO) test -tags invariants . ./internal/domain ./internal/postings ./internal/hint ./internal/tifhint ./internal/core ./internal/sharding ./internal/maint

# The serving benchmark (benchmark/, gated by BENCHMARK.json): one run
# of each workload.
bench:
	for w in lib_point lib_methods http_point http_mixed; do bash benchmark/run.sh -workload $$w -seed 1 || exit 1; done

# Re-measure the hot-path allocation budgets (BENCH_BUDGET.json), then
# re-run the gate against the fresh numbers. -p 1 keeps the in-process
# benchmarks off shared cores; -count=1 defeats test caching.
benchmem:
	ALLOC_BUDGET_RECORD=1 $(GO) test -run TestAllocBudget -count=1 -p 1 \
		./internal/model ./internal/postings ./internal/hint ./internal/tifhint ./internal/route ./internal/tenant ./internal/maint ./internal/rank ./internal/core ./internal/tif ./internal/slicing ./internal/sharding ./internal/server
	$(GO) test -run TestAllocBudget -count=1 -p 1 \
		./internal/model ./internal/postings ./internal/hint ./internal/tifhint ./internal/route ./internal/tenant ./internal/maint ./internal/rank ./internal/core ./internal/tif ./internal/slicing ./internal/sharding ./internal/server

# Full Go microbenchmark sweep (slow; not part of the gate).
microbench:
	$(GO) test -bench=. -benchmem ./...

fuzz:
	$(GO) test -fuzz=FuzzSortIDs -fuzztime=30s ./internal/model/
	$(GO) test -fuzz=FuzzTokenize -fuzztime=30s ./internal/textutil/
	$(GO) test -fuzz=FuzzIntersect -fuzztime=30s ./internal/postings/
	$(GO) test -fuzz=FuzzContainerParity -fuzztime=30s ./internal/postings/
	$(GO) test -fuzz=FuzzGallopParity -fuzztime=30s ./internal/postings/
	$(GO) test -fuzz=FuzzDomainRoundTrip -fuzztime=30s ./internal/domain/
	$(GO) test -fuzz=FuzzSearchRequest -fuzztime=30s ./internal/server/

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
