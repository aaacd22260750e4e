# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets; keep the two in sync.

GO ?= go

.PHONY: all build test lint loc race fuzz bench bench-alloc store-bench mem-smoke delta-smoke counters-repeat

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## lint: gofmt (fails listing every file it would reformat), go vet, and
## the repo's own analyzers (cmd/vetconj): the AST-pattern checks and the
## flow-sensitive sinklock check of DESIGN.md §7. Opt-outs are //lint:<analyzer>-ok with a justification on the same
## line. The registry guard keeps variant dispatch derived from
## core.Variants() everywhere outside internal/core (DESIGN.md §14).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists files to reformat:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/vetconj ./...
	scripts/check_variant_registry.sh

## loc: non-test, non-testdata Go lines of the repository and of
## internal/core against the checked-in ceilings (scripts/loc_ceiling.txt);
## fails when either grew past its ceiling.
loc:
	scripts/loc.sh

## race: race-detector pass over the whole module, then the catalogue,
## pool and store concurrency tests fifty times over: the interleavings
## that break them are rare (a reader falling KeepRevisions behind the
## writer is a few percent of runs), so one pass proves little. The step
## loop's stress test rides along: its cancellation timers land at a
## different point of the build/scan handoff every run. So do the tracked
## session chains: a delta pass solves only the objects its windows list, and
## neighbouring bytes of the key track's moves, row states and window refs are
## written by different workers; the cancelled passes stop at a different
## chunk. So does the gate's motion table: four scan workers publish and read
## its rows.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=50 -run 'TestCatalogConcurrentReadersAndWriter|TestConcurrentGetPut|TestStoreConcurrentAppendAndRead' ./internal/catalog ./internal/pool ./internal/store
	$(GO) test -race -count=50 -run 'TestPipelinedScreenConcurrentRaceStress|TestMotionTableConcurrentRaceStress' ./internal/core
	$(GO) test -race -count=50 -run 'TestSessionUpdateChain/hybrid|TestSessionBoxIndexChain' ./internal/core

## mem-smoke: screen a 131072-object catalogue with the grid detector under
## GOMEMLIMIT=48MiB; fails if the sampled peak heap passes the limit.
mem-smoke:
	MEM_SMOKE=1 GOMEMLIMIT=48MiB $(GO) test -run TestMemSmokeBoundedMemory -v -count=1 ./internal/core

## fuzz: short fuzz sessions — MurmurHash3 invariants (determinism,
## streaming/one-shot agreement, finaliser avalanche), TLE parsing and
## CCSDS CDM/KVN parsing (no-panic on arbitrary input, guarded
## write/parse round trips), and the Brent minimiser (no-panic,
## bracketing invariant, value/abscissa consistency).
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzMurmur3 -fuzztime=20s ./internal/hash
	$(GO) test -run=^$$ -fuzz=FuzzTLEParse -fuzztime=20s ./internal/tle
	$(GO) test -run=^$$ -fuzz=FuzzParseKVN -fuzztime=20s ./internal/ccsds
	$(GO) test -run=^$$ -fuzz=FuzzBrent -fuzztime=20s ./internal/brent

bench:
	$(GO) test -bench=. -benchmem ./...

## bench-alloc: the steady-state screening benchmark with allocation
## reporting, plus the checked-in allocation budget (alloc_test.go) that
## fails if the pooled pipeline regresses past it.
bench-alloc:
	$(GO) test -run='^$$' -bench=BenchmarkSteadyStateScreen -benchtime=5x ./internal/core
	$(GO) test -run=TestSteadyStateAllocationBudget -v ./internal/core

## store-bench: append/recover/query benchmarks for the persistent
## conjunction store (fsync-per-append dominates Append).
store-bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/store

## delta-smoke: the delta path with a live key track — the session chains
## (the second across the window index's rebuild) against fresh screens and
## trackless passes, then the socket level: a
## conjserver stack on loopback taking deltas, each published snapshot
## checked against a from-scratch screen; exits non-zero on any failed op
## (~5 s).
delta-smoke:
	$(GO) test -count=1 -run 'TestSessionUpdateChain|TestSessionBoxIndexChain' ./internal/core
	bash bench/run.sh --verify --smoke

## counters-repeat: the smoke benchmark traced twice and the two captures
## -repeat-check'ed. Traced files compare the exact counters only
## (candidate_pairs, refinements, conjunctions, …), so machine noise cannot
## fail it and a pipeline whose output depends on scheduling does (~5 s).
counters-repeat:
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	bash bench/run.sh --smoke --trace 1 -out "$$d/a.json" >/dev/null && \
	bash bench/run.sh --smoke --trace 1 -out "$$d/b.json" >/dev/null && \
	bash bench/run.sh -repeat-check "$$d/a.json" "$$d/b.json"
