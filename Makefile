# Tier-1 verification is `make test`; `make bench` regenerates the whole
# evaluation as benchmarks; `make fleet` runs the datacenter fleet
# simulation side by side across dispatch policies; `make rack` compares
# the rack-level sprint-coordination policies on a tightly provisioned
# shared circuit; `make scenario` plays the flash-crowd scenario across
# every policy; `make trace` replays it with the flight recorder
# attached, writing TRACE_flashcrowd.jsonl and printing the regret
# summary; `make benchsmoke` runs every benchmark at the root, in
# internal/fleet, in internal/governor, in internal/series and in
# internal/trace exactly once (the CI guard that keeps the fleet, rack,
# governor, latency-histogram and JSONL codec layers exercised, bounded by -timeout
# so a hung scale bench fails loudly instead of stalling the job); `make bench-json` runs the
# fleet-scale benchmarks with -benchmem and emits BENCH_fleet.json (ns/op,
# B/op, allocs/op) so CI can archive the perf trajectory from every run;
# `make bench-gate` compares that report against the committed
# BENCH_baseline.json and fails on regressions past the tolerance;
# `make bench-baseline` refreshes the baseline after an intentional perf
# change (bench-json also runs the flight-recorder JSONL codec benchmarks
# in internal/trace and the dispatch-index and event-queue benchmarks in
# internal/fleet, and bench-gate caps the recorder's overhead as a ratio);
# `make lint`
# is the static gate — gofmt, go vet, the first-party sprintvet
# analyzers (determinism and hot-path contracts), and govulncheck when
# it is installed; `make fuzz-smoke` gives the scenario-JSON, workload-
# spec, trace-replay, recording-reader, whole-spec, dispatch-index, and
# event-queue fuzzers a short budget each;
# `make reliability`
# demos the request-reliability layer (gray stragglers, client timeouts,
# a budgeted retry storm); `make tenants` demos the multi-tenant
# workload; `make replay` is the record→replay golden gate — it records
# the flash-crowd scenario with the flight recorder, checks the
# recording against testdata/GOLDEN_replay_recording.sha256, converts it
# to a replayable trace, replays it at two shard-worker counts, and
# diffs the byte-identical report against the committed
# testdata/GOLDEN_replay.txt (refresh both with `make replay-golden`
# after an intentional engine change).

GO ?= go

# The CI gate tolerance is deliberately loose (1.5 = fail past 2.5×):
# the baseline is measured on a different machine than the runner and
# benchtime=1x is noisy, but the gate still catches the order-of-
# magnitude regressions (an O(N) scan sneaking back into dispatch) that
# used to merge green. Tighten locally with TOLERANCE=0.25.
TOLERANCE ?= 1.5

# The parallel-speedup floor for the sharded event loop: the decoupled
# 8-worker run must beat its sequential base by this ratio. benchjson
# only arms the check when the benchmark ran at GOMAXPROCS >= 4 — a
# narrower runner cannot exhibit parallel speedup, so it prints a skip
# note instead of a false verdict.
MIN_SPEEDUP ?= BenchmarkFleetScaleDecoupledParallel=3

# The flight recorder's cost ceilings, one name/base=ratio per word: a
# traced run may take at most this multiple of the identical untraced run.
# Both benchmarks run on the same machine in the same report, so the ratio
# is portable; a name or base may be a sub-benchmark. Measured at
# -benchtime 5x -count 3, four rounds (2 CPUs): in memory 2.7-4.0x at
# the full level and 2.0-3.5x at the decisions level; streamed through
# the JSONL encoder (BenchmarkFleetTraceStream, the fleetsim -trace path)
# 4.2-6.3x and 3.8-5.9x. Each ceiling leaves headroom over the worst run.
MAX_RATIO ?= BenchmarkFleetTrace/BenchmarkFleetTraceOff=5 BenchmarkFleetTraceDecisions/BenchmarkFleetTraceOff=5 \
	BenchmarkFleetTraceStream/full/BenchmarkFleetTraceOff=8 BenchmarkFleetTraceStream/decisions/BenchmarkFleetTraceOff=8

# The benchmarks bench-json records: the fleet set at the module root, the
# recorder's JSONL codec in internal/trace, and the dispatch index's and
# event queue's per-layer benchmarks in internal/fleet. The trailing $
# anchor keeps BenchmarkEventQueueTimers out until BENCH_baseline.json has
# an entry for it.
BENCH_SET = BenchmarkFleetScale|BenchmarkFleetSweep|BenchmarkRackSweep|BenchmarkFleetScenario|BenchmarkFleetTrace|BenchmarkFleetTraceDecisions|BenchmarkFleetReliability|BenchmarkFleetTenants|BenchmarkTraceWriteJSONL|BenchmarkTraceReadJSONL|BenchmarkDispatchIndex|BenchmarkEventQueue$$

.PHONY: all build test bench benchsmoke bench-json bench-gate bench-baseline vet lint fuzz-smoke fleet rack scenario trace reliability tenants replay replay-golden replay-run

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the full static gate: formatting, the standard vet suite, the
# module's own sprintvet analyzers run through the real `go vet
# -vettool` protocol, and govulncheck when present (it needs a network
# to fetch the vulnerability database, so offline checkouts skip it
# with a note instead of failing).
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	mkdir -p bin
	$(GO) build -o bin/sprintvet ./cmd/sprintvet
	$(GO) vet -vettool=$(CURDIR)/bin/sprintvet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test: vet
	$(GO) test -race ./...

# A short-budget fuzz pass over every strict-decode surface — the
# scenario JSON loader, the workload-spec loader, the request-trace
# parser/replayer, and the flight-recorder JSONL reader — plus whole
# fleet specs against Spec.Validate, the dispatch index against a
# brute-force scan and the event queue against a sorted reference:
# enough to catch a fresh panic in parsing, validation, or a bounded
# run, a run that Validate and Run judge differently, or an index query
# or event order that diverges from its reference, without holding up
# CI. (The go tool takes one -fuzz target per invocation, hence seven.)
# Each new-coverage input is minimized for at most 100 runs: under the
# go tool's 60 s default a warm corpus cache can spend the whole budget
# minimizing and fuzz almost nothing.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScenarioJSON -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzWorkloadSpecJSON -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzTraceReplay -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s -fuzzminimizetime 100x ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzDispatchIndex -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s -fuzzminimizetime 100x ./internal/fleet

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

benchsmoke:
	$(GO) test -bench=. -benchtime=1x -timeout 10m -run=^$$ . ./internal/fleet ./internal/governor ./internal/series ./internal/trace

bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_SET)' \
		-benchmem -benchtime=1x -timeout 10m . ./internal/trace ./internal/fleet > BENCH_fleet.txt
	cat BENCH_fleet.txt
	$(GO) run ./cmd/benchjson < BENCH_fleet.txt > BENCH_fleet.json

bench-gate: bench-json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_fleet.json \
		-tolerance $(TOLERANCE) -min-speedup $(MIN_SPEEDUP) $(addprefix -max-ratio=,$(MAX_RATIO))

bench-baseline: bench-json
	cp BENCH_fleet.json BENCH_baseline.json

fleet:
	$(GO) run ./cmd/fleetsim -nodes 100 -requests 20000

rack:
	$(GO) run ./cmd/fleetsim -nodes 96 -requests 20000 -policy sprint-aware \
		-coordination all -rack-size 16 -rack-budget-w 31 -rate 57.6

scenario:
	$(GO) run ./cmd/fleetsim -scenario examples/scenarios/flashcrowd.json -policy all

trace:
	$(GO) run ./cmd/fleetsim -scenario examples/scenarios/flashcrowd.json \
		-policy sprint-aware -coordination token-permit \
		-trace TRACE_flashcrowd.jsonl -trace-level full -trace-summary

reliability:
	$(GO) run ./cmd/fleetsim -nodes 16 -requests 20000 -policy least-loaded \
		-gray-frac 0.2 -gray-slowdown 6 -timeout-s 5 -max-retries 8 \
		-retry-backoff-s 0.1 -retry-budget 0.7

tenants:
	$(GO) run ./cmd/fleetsim -workload examples/workloads/tenants.json \
		-policy sprint-aware

# The record→replay golden gate. One traced flash-crowd run produces the
# recording, whose sha256 must match the committed one; -convert-trace
# turns its dispatch decisions into a replayable CSV; the replay report
# must be byte-identical at different -shard-workers counts AND match
# the committed golden — any drift in the recorder, the converter, the
# trace codec, or the replay engine fails loudly.
replay: replay-run
	sha256sum -c testdata/GOLDEN_replay_recording.sha256
	bin/fleetsim -policy sprint-aware -coordination token-permit \
		-replay REPLAY_trace.csv -shard-workers 7 > REPLAY_report.shard7.txt
	cmp REPLAY_report.txt REPLAY_report.shard7.txt
	diff -u testdata/GOLDEN_replay.txt REPLAY_report.txt
	@echo "replay gate: recording and report match their goldens, byte-identical across shard counts"

# replay-golden refreshes the committed goldens after an intentional
# recorder, engine or report change.
replay-golden: replay-run
	sha256sum REPLAY_recording.jsonl > testdata/GOLDEN_replay_recording.sha256
	cp REPLAY_report.txt testdata/GOLDEN_replay.txt

# replay-run regenerates the replay report: record, convert, replay.
replay-run:
	mkdir -p bin
	$(GO) build -o bin/fleetsim ./cmd/fleetsim
	bin/fleetsim -scenario examples/scenarios/flashcrowd.json \
		-policy sprint-aware -coordination token-permit \
		-trace REPLAY_recording.jsonl > /dev/null
	bin/fleetsim -convert-trace REPLAY_recording.jsonl -replay-out REPLAY_trace.csv
	bin/fleetsim -policy sprint-aware -coordination token-permit \
		-replay REPLAY_trace.csv -shard-workers 2 > REPLAY_report.txt
