# Tier-1 gate: everything must build, vet clean, lint clean, and pass
# under the race detector before a change lands.
.PHONY: check build vet lint lint-fixtures test norace test-benchmark probes bench bench-allocs bench-smoke calibrate-smoke chaos retain fuzz-smoke

check: build vet lint lint-fixtures test norace test-benchmark probes bench-allocs bench-smoke calibrate-smoke chaos fuzz-smoke

build:
	go build ./...

# Vet, and every Go file gofmt-clean (the unformatted ones are listed).
vet:
	go vet ./...
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# Repo-specific invariant analyzers (map order, lock discipline, dropped
# errors). Exits non-zero on any finding; per-analyzer timings on stderr.
lint:
	go run ./cmd/lotec-lint -time ./...

# Analyzer self-test: every analyzer must produce exactly the expected
# diagnostics on its positive fixtures (including the -json golden file)
# and stay silent on the negative ones.
lint-fixtures:
	go test -run 'TestMapIter|TestLockHeld|TestErrDrop|TestDirectiveAudit|TestMain' ./internal/lint/

test:
	go test -race ./...

# The tests built only without -race (test above skips them), bar the
# allocation gates of bench-allocs: the golden simulator outputs, which
# prove a refactor kept the paper's figures, and the TCP runtime's
# steady-state heap, home-page journal and zero-page cache bounds.
norace:
	go test -run 'TestGoldenOutputs|TestSteadyStateHeapIsConstant|TestHomePagesKeepNoJournal|TestZeroPagesShareOneBuffer' ./cmd/lotec-sim/ ./internal/server/

# The repo benchmark (benchmark/) is a module of its own, so ./... above
# does not reach it; vet and test it from its own directory.
test-benchmark:
	go vet -C benchmark ./... && go test -C benchmark ./...

# The repo benchmark's layer probes (benchmark/probes.go), built from this
# checkout: they drive the runtime packages directly, and nothing else runs
# them, so a runtime change could break one unseen.
probes:
	bash benchmark/run.sh --probes

# Regenerate every row of BENCH_results.json: one run of lotec-bench's
# ledger table (figure workload timings and transfer stages, the delta
# sweep, control-plane availability, hot-path perf/ rows, tcp/
# frame and allocation counts, loc rows). The calibration section is kept.
bench:
	go run ./cmd/lotec-bench -figure 3 -json BENCH_results.json

# Steady-state allocation gates (testing.AllocsPerRun) over the hot paths:
# pooled frame get/release, EncodeFrame, ReadFrame, DecodeView, the page
# pool, the directory's immediate-grant fast path and its contended path
# (queues, deferred grants, deadlock aborts, upgrades, recalls), the search
# a directory host runs over the union of its shards, the serving
# side of a fetch and a push, and a whole TCPNet.Call round trip on
# loopback; and the per-root budgets: a flat root — a repeat one, on a grant
# retained at its site, and a first one — in the engine alone, a root over
# two directory shards, its shadow log (no page-sized buffer), end to end
# over loopback, and the bytes of a root that pulls and rewrites a whole
# page (under one page).
# Run without -race: the poison pass and detector instrumentation change
# the allocation behavior under test.
bench-allocs:
	go test -run 'TestAllocs' ./internal/wire/ ./internal/directory/ ./internal/server/ ./internal/node/ ./internal/pstore/ ./internal/xfer/

# The ledger gate: rerun every gated entry of lotec-bench's ledger table and
# hold each row to the committed BENCH_results.json, which is only read; a
# row missing there fails. The runs also enforce the 8 B-write delta saving
# and control-plane availability.
bench-smoke:
	go run ./cmd/lotec-bench -figure 3 -smoke

# Observe-predict-calibrate gate: the zipf-hot spec runs on the simulator
# (one dedicated directory host, sim.Config.Replicas 1) and on a real
# in-process TCP cluster;
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
# adopt races, the TCP frame counts of a first and a repeat root, the same
# trace from the simulator's dedicated host and from TCP, and the
# simulator's RetainGrants legs — serial-replay oracle, replicated workload,
# primary kill.
retain:
	go test -race -run 'Retention|Retain|Recall|Adopt|TestMessagesPerRoot|TestSimulatorAndTCPSendTheSameTrace' ./internal/gdo/ ./internal/directory/ ./internal/node/ ./internal/server/
	go test -race -run 'TestWorkloadSerialEquivalence|TestReplicatedWorkload|TestReplicatedPrimaryKill' ./internal/sim/

# The codec fuzzer for 20 s, as CI runs it: Decode must never panic, must
# agree with DecodeView, and must re-encode whatever it accepts canonically.
fuzz-smoke:
	go test -run=NONE -fuzz=FuzzDecode -fuzztime=20s ./internal/wire/
