# Tier-1 gate: everything must build, vet clean, lint clean, and pass
# under the race detector before a change lands.
.PHONY: check build vet lint lint-fixtures test test-benchmark bench bench-allocs bench-smoke calibrate-smoke chaos retain

check: build vet lint lint-fixtures test test-benchmark bench-allocs bench-smoke calibrate-smoke chaos

build:
	go build ./...

vet:
	go vet ./...

# Repo-specific invariant analyzers (determinism taint, lock discipline,
# static lock ordering, hot-path allocations, wire-protocol sync, dropped
# errors). Exits non-zero on any finding; per-analyzer timings on stderr.
lint:
	go run ./cmd/lotec-lint -time ./...

# Analyzer self-test: every analyzer must produce exactly the expected
# diagnostics on its positive fixtures (including the -json golden file)
# and stay silent on the negative ones.
lint-fixtures:
	go test -run 'TestMapIter|TestLockHeld|TestWireSync|TestErrDrop|TestDetSource|TestLockOrder|TestHotAlloc|TestDirectiveAudit|TestMain' ./internal/lint/

test:
	go test -race ./...

# The repo benchmark (benchmark/) is a module of its own, so ./... above
# does not reach it; vet and test it from its own directory.
test-benchmark:
	go vet -C benchmark ./... && go test -C benchmark ./...

# Regenerate BENCH_results.json (figure workload timings, transfer-stage
# breakdown, fetch-concurrency sweep, sharded directory throughput).
bench:
	go run ./cmd/lotec-bench -figure 3 -json BENCH_results.json

# Steady-state allocation gates (testing.AllocsPerRun) over the
# //lotec:noalloc surfaces: pooled frame get/release, EncodeFrame,
# ReadFrame, DecodeView, the page pool, the directory's immediate-grant fast
# path, and a whole TCPNet.Call round trip on loopback; and the per-root
# budgets: a flat root — a repeat one, on a grant retained at its site, and a
# first one — in the engine alone, a root over two directory shards, its
# shadow log (no page-sized buffer), end to end over loopback, and the bytes
# of a root that pulls and rewrites a whole page (under one page).
# Run without -race: the poison pass and detector instrumentation change
# the allocation behavior under test.
bench-allocs:
	go test -run 'TestAllocs' ./internal/wire/ ./internal/directory/ ./internal/server/ ./internal/node/ ./internal/pstore/

# Fast data-plane invariant check: the byte/message trace must be identical
# at FetchConcurrency 1 and 4, and the modeled gather wall-clock must
# improve when transfers fan out. With a committed BENCH_results.json the
# smoke run also regresses bytes_moved/ns_per_op/allocs_per_op for the
# figure rows and the per-path perf/ ledger rows.
bench-smoke:
	go run ./cmd/lotec-bench -figure 3 -smoke

# Observe-predict-calibrate gate: the zipf-hot spec runs on the simulator
# (dedicated-directory topology) and on a real in-process TCP cluster;
# commit/abort counts must match exactly and traffic volume must agree
# within tolerance. Writes the predicted-vs-measured table into a scratch
# file so the committed BENCH_results.json is not touched by CI.
calibrate-smoke:
	go run ./cmd/lotec-bench -calibrate -workload zipf-hot -json /tmp/lotec-calibration.json

# Chaos harness, full matrix: 40 seeds × 7 fault plans × 3 protocols, each
# cell as the paper has it and again with site-retained grants on
# (sim.Config.RetainGrants), under the race detector, plus the zero-fault
# trace-equivalence gate. A failing cell reproduces with:
# go test ./internal/sim -run TestChaos -chaos-seed=<n>
# (package path first: custom test-binary flags must follow it).
chaos:
	go test -race -run 'TestChaos|TestZeroFaultPlanTraceEquivalence' ./internal/sim/ -chaos-full

# Site-retained grants on their own (all of it is also part of test and
# chaos): the directory's keep/recall/adopt walk, the engine's recall and
# adopt races, the TCP frame counts of a first and a repeat root, and the
# simulator's RetainGrants legs — serial-replay oracle, replicated workload,
# primary kill.
retain:
	go test -race -run 'Retention|Retain|Recall|Adopt|TestMessagesPerRoot' ./internal/gdo/ ./internal/directory/ ./internal/node/ ./internal/server/
	go test -race -run 'TestWorkloadSerialEquivalence|TestReplicatedWorkload|TestReplicatedPrimaryKill' ./internal/sim/
