# Convenience targets for the reproduction workflow.

GO ?= go

# Per-target budget for the fuzz smoke (see `make fuzz`).
FUZZTIME ?= 10s

.PHONY: all build test race bench-smoke bench-ab sim-identical fuzz torture scenarios figures extensions verify report clean lint vet striplint lint-fixtures

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Static checks: go vet plus the repo-specific determinism/locking
# rules (see internal/lint and `go run ./cmd/striplint -list`). The
# per-update allocation budget is not linted but measured: the
# testing.AllocsPerRun pins in `make test` (DESIGN §9).
lint: vet striplint

vet:
	$(GO) vet ./...

striplint:
	$(GO) run ./cmd/striplint ./...

# The second run repeats the tests of the lock-free offer paths (local
# and replicated) and the ingest ring under them, of name lookups while
# the definitions table grows, of the lock-free Stats copy and the
# scrape built on it, of a submission that Close overtakes, of a Watch
# cancelled and closed during delivery, and of the replication ring's
# concurrent readers, whose interleavings differ from run to run.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'TestConcurrentOffersDefinitionsAndClose|TestApplyUpdateTakesNoLock|TestApplyReplicatedTakesNoLock|TestLookupsWhileTableGrows|TestIngestRing|TestStatsTakesNoLock|TestStatsBalanceUnderAFeed|TestScrapeIsOneSnapshot|TestExecOvertakenByCloseIsCounted|TestWatchCancelAndCloseRaceDelivery|TestRingConcurrentReadersSeeEveryFrame' ./strip ./strip/repl

# Fuzz smoke: run every Fuzz* target in the FUZZPKGS packages for
# FUZZTIME each. `go test -fuzz` accepts only one matching target per
# invocation, so the targets are listed first and fuzzed one by one.
FUZZPKGS = ./strip ./strip/internal/frame ./strip/repl ./strip/elect ./strip/scenario

fuzz:
	@set -e; for pkg in $(FUZZPKGS); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzzing $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run='^$$' -fuzz="^$$f$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# Crash-recovery torture: every byte-level crash point of a scripted
# workload, the WAL's format, refusal and recovery tests (every test
# named WAL), seeded WAL fault schedules, degraded-mode policy,
# replication connection chaos, and the scenario library (the
# Scenario match), whose failover files kill the elected primary at
# enumerated crash points with partitions active — all under the race
# detector.
torture:
	$(GO) test -race -count=1 -run 'Torture|CrashPoint|Chaos|Degraded|Replay|Checkpoint|WAL|Fault|MemFS|Schedule|Failover|Elect|Scenario' \
		./strip ./strip/fault ./strip/repl ./strip/elect ./strip/scenario

# Scenario robustness suite: every declarative fault-schedule scenario
# under scenarios/ runs against a live fleet under the race detector;
# each run's seeded transcript lands in scenario-transcripts/ so CI can
# keep them as artifacts. `-seed N` on the printed repro command reruns
# one scenario with a different schedule.
scenarios:
	$(GO) run -race ./cmd/stripsim -scenario scenarios -transcript scenario-transcripts

# Smoke test of the repository's benchmark (bench/, run for real as
# `bash bench/run.sh --workload <name>`; see bench/README.md). bench/
# is a module of its own (repro/bench), so `./...` does not reach it.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test .

# A/B runs of the benchmark, the way BENCHMARK.json judges a perf
# change: BASE against the working tree in alternating pairs, then
# -compare and the pairs each side won (see scripts/bench-ab.sh). Takes
# 2 x PAIRS x run_seconds plus set-up; CI runs bench-smoke only.
BASE ?=
WORKLOAD ?= feed_capacity
PAIRS ?= 10

bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [WORKLOAD=feed_capacity] [PAIRS=10]"; exit 2; }
	bash scripts/bench-ab.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)"

# The simulator's results against BASE's, byte for byte, over the
# 60-configuration `stripsim -json` matrix (see scripts/sim-identical.sh):
# the check a change to code the simulator shares with the live engine
# runs to show the schedule did not move.
sim-identical:
	@test -n "$(BASE)" || { echo "usage: make sim-identical BASE=<rev>"; exit 2; }
	bash scripts/sim-identical.sh "$(BASE)"

# Golden-fixture contract: every lint rule ships at least one positive
# and one negative fixture.
lint-fixtures:
	$(GO) test ./internal/lint -run 'TestFixtureInventory' -count=1

# Regenerate every paper figure at publication scale (about 10 min).
figures:
	$(GO) run ./cmd/stripexp -all -duration 1000 -seeds 2 -o results

extensions:
	$(GO) run ./cmd/stripexp -extensions -duration 1000 -seeds 2 -o results

# Check every qualitative claim of the paper (a few minutes).
verify:
	$(GO) run ./cmd/stripexp -verify -duration 200 -seeds 1

# One self-contained markdown report: figures + claims + extensions.
report:
	$(GO) run ./cmd/stripexp -report REPORT.md -duration 1000 -seeds 2

clean:
	rm -rf results test_output.txt scenario-transcripts
