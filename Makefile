# Verification harness for the SketchML reproduction.
#
# `make verify` is the pre-PR gate: build, formatting, go vet, unit tests
# (which hold the hot path's allocation contract and, in TestRepoIsClean,
# the project's own static analyzers), one pass of every benchmark body,
# the experiments and race matrices, the chaos soak, the fuzz binaries'
# build and a fuzz smoke over the wire-format decoders, and the service
# smoke. `make fuzz` runs the fuzzers
# longer. See DESIGN.md "Verification & static analysis" and ROADMAP.md
# "Pre-PR gate".

GO       ?= go
FUZZTIME ?= 10s
# fuzz-smoke keeps verify fast; the seed corpora under testdata/fuzz run
# unconditionally as part of `go test` either way.
SMOKE_FUZZTIME ?= 5s

# race-matrix sweeps scheduler pressure (GOMAXPROCS): the concurrency-heavy
# packages, and the two behind the batch gradient's pooled scratch (model,
# gradient), run under -race at every point; -count=1 defeats the test cache
# so each point really executes. experiments-matrix runs ./internal/experiments
# with its wall-clock shape assertions switched on (they skip under -race and
# inside a whole-module run) at GOMAXPROCS 1, 2 and NumCPU, so a stage meter
# that only holds on some core count fails the gate instead of the next
# 2-CPU host.
MATRIX_GOMAXPROCS   ?= 1 2 8
MATRIX_PKGS         ?= ./internal/codec ./internal/trainer ./internal/cluster ./internal/service ./internal/model ./internal/gradient
# Fault seed for the race-matrix chaos point; the default chaos-soak run
# uses the test's built-in seed, so the matrix exercises a second schedule.
CHAOS_MATRIX_SEED ?= 7
# Native fuzz targets, as "package:Target" pairs: every `func Fuzz...` in a
# _test.go file outside testdata/, so a new target is fuzzed without being
# listed. Go's fuzzer runs one target per invocation, so the fuzz rule loops.
FUZZ_TARGETS = $(shell grep -roH --include='*_test.go' --exclude-dir=testdata '^func Fuzz[A-Za-z0-9_]*' . | \
	sed 's|^\(.*\)/[^/]*:func |\1:|' | sort)
# fuzz-build writes each fuzzed package's instrumented test binary here,
# named after the package directory (./internal/codec -> internal-codec.test).
FUZZ_BIN ?= bin/fuzz

# The pre-PR gates, in the order `make verify` runs them.
VERIFY_GATES := build fmt vet test bench-smoke experiments-matrix race-matrix chaos-soak fuzz-build fuzz-smoke service-smoke

.PHONY: all build fmt vet lint test bench-smoke race race-matrix experiments-matrix chaos-soak fuzz-build fuzz fuzz-run fuzz-smoke service-smoke timed verify bench-pairs loc clean

all: verify

build:
	$(GO) build ./...

# gofmt -l prints offending files; grep -c . turns "any output" into a
# failing exit status with the file list still visible.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$out"; \
		exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint is a convenience, not a gate: `test` runs the same suite (TestRepoIsClean).
lint:
	$(GO) run ./cmd/sketchlint

test:
	$(GO) test ./...

# bench-smoke runs every Benchmark* body once. One iteration measures
# nothing; it is there so a benchmark whose numbers a change quotes cannot
# break unseen, since no other gate executes a benchmark body.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

race:
	$(GO) test -race ./...

race-matrix:
	@set -e; ncpu=$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN); \
	points="$(MATRIX_GOMAXPROCS)"; \
	if [ "$$ncpu" -ge 4 ]; then points="$$points $$ncpu"; fi; \
	for gmp in $$points; do \
		echo "race-matrix: GOMAXPROCS=$$gmp"; \
		GOMAXPROCS=$$gmp $(GO) test -race -count=1 $(MATRIX_PKGS); \
	done
	@echo "race-matrix: dataset point GOMAXPROCS=4 (the generator's pool, which judges chunks and finishes instances)"
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestGenerate|TestZipf' ./internal/dataset
	@echo "race-matrix: chaos point GOMAXPROCS=4 CHAOS_SEED=$(CHAOS_MATRIX_SEED)"
	GOMAXPROCS=4 SKETCHML_CHAOS_SOAK=1 SKETCHML_CHAOS_SEED=$(CHAOS_MATRIX_SEED) \
		$(GO) test -race -count=1 -run TestChaosSoak ./internal/trainer
	@echo "race-matrix: all points passed"

# The package runs alone here, so this is where its wall-clock orderings are
# asserted (SKETCHML_EXPERIMENTS_WALLCLOCK, a test-only gate like the chaos
# soak's); a plain `go test ./...` checks only what repeats exactly.
experiments-matrix:
	@set -e; ncpu=$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN); \
	for gmp in $$(printf '%s\n' 1 2 $$ncpu | sort -nu); do \
		echo "experiments-matrix: GOMAXPROCS=$$gmp"; \
		GOMAXPROCS=$$gmp SKETCHML_EXPERIMENTS_WALLCLOCK=1 $(GO) test -count=1 ./internal/experiments; \
	done

# chaos-soak trains under seeded fault injection (drops, corruption, dups,
# delays, one worker disconnect+rejoin) under -race and demands exact
# counter reproducibility plus convergence within tolerance of the clean
# run. The race-matrix chaos point above sweeps a second fault seed.
chaos-soak:
	SKETCHML_CHAOS_SOAK=1 $(GO) test -race -count=1 -run TestChaosSoak -v ./internal/trainer

# fuzz-build compiles one fuzz-instrumented test binary per fuzzed package
# (`go test -c -fuzz` with the package's first target; the instrumentation
# covers the whole package, so the binary runs every target in it). A fresh
# build cache spends its time here, compiling the instrumented standard
# library, and fuzz-smoke's budget holds only fuzzing.
fuzz-build:
	@set -e; mkdir -p $(FUZZ_BIN); built=" "; \
	for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		case "$$built" in *" $$pkg "*) continue;; esac; built="$$built$$pkg "; \
		echo "building the fuzz binary of $$pkg"; \
		$(GO) test -c -fuzz "^$$target\$$" -o $(FUZZ_BIN)/$$(echo $${pkg#./} | tr / -).test $$pkg; \
	done

# fuzz-run runs every target for FUZZTIME from its package's fuzz-build
# binary, in the package directory (where its testdata/fuzz corpus is),
# with the fuzz cache `go test -fuzz` would use. It does not rebuild: fuzz
# builds first; fuzz-smoke relies on the fuzz-build gate before it.
fuzz-run:
	@set -e; cache=$$($(GO) env GOCACHE)/fuzz/$$($(GO) list -m); \
	for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; target=$${t##*:}; dir=$${pkg#./}; \
		bin=$(abspath $(FUZZ_BIN))/$$(echo $$dir | tr / -).test; \
		[ -x $$bin ] || { echo "fuzz-run: no $$bin; run make fuzz-build first"; exit 1; }; \
		echo "fuzzing $$target in $$pkg for $(FUZZTIME)"; \
		(cd $$pkg && $$bin -test.run '^$$' -test.fuzz "^$$target\$$" \
			-test.fuzztime $(FUZZTIME) -test.fuzzcachedir $$cache/$$dir); \
	done

fuzz-smoke:
	@$(MAKE) --no-print-directory fuzz-run FUZZTIME=$(SMOKE_FUZZTIME)

fuzz: fuzz-build
	@$(MAKE) --no-print-directory fuzz-run

# service-smoke is the end-to-end control-plane gate: build the real
# binary, start it in -serve mode, submit a job over HTTP and poll it to
# completion, then SIGTERM the process mid-run on a second job and demand a
# clean drain — checkpoint on disk, exit code 0. The test itself lives in
# cmd/sketchml/serve_smoke_test.go, gated behind the env var so plain
# `go test ./...` stays fast.
service-smoke:
	SKETCHML_SERVICE_SMOKE=1 $(GO) test -count=1 -run TestServiceSmoke -v ./cmd/sketchml

# timed runs the gates named in GATES in order, stops at the first failure,
# and prints each gate's wall time beside its budget and the total, so what
# the gate costs is itself measured and held (CI's jobs run their gates
# through it too). A gate that passes but takes longer than its budget fails:
# GATE_BUDGETS names budgets in seconds as gate=seconds pairs: twice what the
# four slow gates read on the 2-vCPU host after PR 17's deletions, test cache
# cleared (race-matrix 78, experiments-matrix 23, test 19, fuzz-smoke 40 —
# 50 with the eight targets it has since PR 20, inside the same budget), and
# room for CI's full-module race pass. GATE_BUDGET covers every gate not
# named.
GATE_BUDGETS ?= race-matrix=156 experiments-matrix=46 fuzz-smoke=80 test=38 race=600
GATE_BUDGET  ?= 120
timed:
	@set -e; total=0; report=""; \
	for gate in $(GATES); do \
		budget=$(GATE_BUDGET); \
		for pair in $(GATE_BUDGETS); do \
			if [ "$${pair%%=*}" = "$$gate" ]; then budget=$${pair##*=}; fi; \
		done; \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$gate; \
		took=$$(( $$(date +%s) - start )); total=$$(( total + took )); \
		report="$$report$$(printf '  %-20s %5ds  (budget %4ds)' $$gate $$took $$budget)\n"; \
		if [ $$took -gt $$budget ]; then \
			printf "gate wall times:\n$$report"; \
			echo "timed: $$gate passed but took $${took}s, over its $${budget}s budget"; \
			exit 1; \
		fi; \
	done; \
	printf "gate wall times:\n$$report  %-20s %5ds\n" total $$total

verify:
	@$(MAKE) --no-print-directory timed GATES="$(VERIFY_GATES)"
	@echo "verify: all gates passed"

# bench-pairs judges this checkout against PARENT on workloads of the
# end-to-end benchmark: `make bench-pairs PARENT=<ref> WORKLOAD="<w> ..."
# PAIRS=10`. The parent is exported with `git archive` into a temporary
# directory (no worktree metadata is left behind if the run is interrupted)
# and both sides are built once. For each workload in turn, pair i runs
# seed i untraced on each side, one run at a time, each binary in its own
# checkout's root, parent first on odd pairs and change first on even ones,
# so a drift of the host lands on both sides alike. The result sets are
# kept in PAIRS_OUT and judged with `go run ./bench -compare`, whose row for
# the workload is printed (the other rows read "missing"); the target fails
# when any workload's row has a regressed or missing metric. A pair of the
# trainer rows takes about a minute on 2 vCPUs.
PARENT    ?= HEAD
WORKLOAD  ?= lr-raw-star-tcp
PAIRS     ?= 10
PAIRS_OUT ?= bench/out/pairs
bench-pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir -p "$$tmp/parent" "$(PAIRS_OUT)"; out=$$(cd "$(PAIRS_OUT)" && pwd); \
	git archive "$(PARENT)" | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) build -o "$$tmp/bench-parent" ./bench); \
	$(GO) build -o "$$tmp/bench-change" ./bench; \
	side() { \
		echo "bench-pairs: $$1 seed $$3 $$2"; \
		if [ "$$2" = parent ]; then dir="$$tmp/parent"; else dir=.; fi; \
		(cd "$$dir" && "$$tmp/bench-$$2" -workload "$$1" -seed "$$3" -no-trace \
			-out "$$out/$$1-$$2-$$3.json" >/dev/null); \
	}; \
	failed=""; \
	for w in $(WORKLOAD); do \
		parents=""; changes=""; \
		for i in $$(seq 1 $(PAIRS)); do \
			if [ $$((i % 2)) -eq 1 ]; then side $$w parent $$i; side $$w change $$i; \
			else side $$w change $$i; side $$w parent $$i; fi; \
			parents="$$parents$${parents:+,}$$out/$$w-parent-$$i.json"; \
			changes="$$changes$${changes:+,}$$out/$$w-change-$$i.json"; \
		done; \
		verdict=$$($(GO) run ./bench -compare "$$parents" "$$changes" | grep "^$$w:") || true; \
		echo "$${verdict:-$$w: no verdict}"; \
		case "$$verdict" in ""|*=regressed*|*=missing*) failed="$$failed $$w";; esac; \
	done; \
	if [ -n "$$failed" ]; then echo "bench-pairs: regressed or missing:$$failed"; exit 1; fi

# loc prints the non-test Go lines of every package directory outside
# bench/ and testdata/, then their total: the size CHANGES.md and ROADMAP.md
# quote. `make loc PARENT=<ref>` also unpacks <ref> with git archive into a
# temporary directory, counts it the same way, and prints parent, change and
# delta per package and in total: a simplicity change's line claim.
LOC_LINES = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' \
	-exec wc -l {} + | awk '$$2 != "total" { dir = $$2; sub("/[^/]*$$", "", dir); print dir, $$1 }'
loc:
ifeq ($(origin PARENT),file)
	@$(LOC_LINES) | \
	awk '{ lines[$$1] += $$2; total += $$2 } \
		END { for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"; close("sort -k2"); \
			printf "%7d  total\n", total }'
else
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/tree"; \
	git archive "$(PARENT)" | tar -x -C "$$tmp/tree"; \
	(cd "$$tmp/tree" && $(LOC_LINES)) > "$$tmp/parent"; \
	$(LOC_LINES) > "$$tmp/change"; \
	awk 'FNR == NR { p[$$1] += $$2; pt += $$2; all[$$1]; next } { c[$$1] += $$2; ct += $$2; all[$$1] } \
		END { printf "%7s %7s %7s  %s\n", "parent", "change", "delta", "package"; fflush(); \
			for (d in all) printf "%7d %7d %+7d  %s\n", p[d], c[d], c[d] - p[d], d | "sort -k4"; close("sort -k4"); \
			printf "%7d %7d %+7d  total\n", pt, ct, ct - pt }' "$$tmp/parent" "$$tmp/change"
endif

clean:
	$(GO) clean ./...
	rm -rf $(FUZZ_BIN)
