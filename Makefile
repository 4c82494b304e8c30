# tsqrcp — build/test/reproduce targets (stdlib-only Go; no external deps)

GO ?= go
COVER_MIN ?= 70
BENCH_TOLERANCE ?= 0.25

.PHONY: all ci build lint fmt-check vet repolint escapecheck \
	lint-fix-baseline test test-debug test-purego cross-arm64 \
	race bench bench-json bench-smoke cover cover-gate repro repro-paper \
	e2e-ooc examples clean

all: build vet test

# Everything the CI workflow runs, in the same order: the lint job
# (fmt-check + vet + repolint), the test job (with its debugchecks,
# purego and arm64 cross-build steps), the race job, the coverage gate,
# and the benchmark smoke gate. Green here ⇒ green on CI (modulo runner
# noise on bench-smoke, which CI loosens via BENCH_TOLERANCE).
ci: lint build test test-debug test-purego cross-arm64 race cover-gate bench-smoke

# Formatting, go vet, the repo-specific static analyzer, and the
# compiler escape gate (DESIGN.md §7).
lint: fmt-check vet repolint escapecheck

build:
	$(GO) build ./...

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Repo-specific invariants (workspace/span balance, engine threading,
# float equality, rand hygiene, hot-path purity, slot-reduction
# determinism, wire bounds, cancellation). Diagnostics print as
# file:line:col: message [check]; suppress a finding with
# //repolint:allow <check> — reason. Runs two build configurations so
# the debugchecks assertion files are analyzed too. See DESIGN.md §7.
repolint:
	$(GO) run ./cmd/repolint ./...
	$(GO) run ./cmd/repolint -tags debugchecks ./...

# Compiler escape gate: //repolint:hotpath functions must not gain heap
# escapes beyond the checked-in baseline (cmd/escapecheck/baseline.txt).
escapecheck:
	$(GO) run ./cmd/escapecheck

# Regenerate the escape baseline after deliberately accepting a new
# escape; review the baseline diff in the PR like any other change.
lint-fix-baseline:
	$(GO) run ./cmd/escapecheck -update

test:
	$(GO) test ./...

# Re-run the suite with the debugchecks runtime assertions compiled in
# (NaN/Inf scans at kernel boundaries, mat header guards).
test-debug:
	$(GO) test -tags debugchecks ./...

# Re-run the kernel packages with the AVX2 assembly switched off, so the
# pure-Go reference loops of internal/blas run on amd64 too.
test-purego:
	$(GO) test -tags purego ./internal/... . ./mat/

# Vet and build for arm64, where only the Go kernels exist.
cross-arm64:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

race:
	$(GO) test -race -timeout 10m . ./internal/... ./mat/ ./dist/ ./service/

# One benchmark per paper figure/table plus the ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Kernel regression numbers (Gram/TRSM/GEMM + end-to-end IteCholQRCP,
# with per-stage trace rows) as JSON, then the service-layer rows
# (jobs/sec + latency quantiles) merged into the same file, for diffing
# against the committed BENCH_kernels.json. Schema: bench/SCHEMA.md.
bench-json:
	$(GO) run ./cmd/bench-kernels -trace -o BENCH_kernels.json
	$(GO) run ./cmd/bench-service -o BENCH_kernels.json
	@echo "wrote BENCH_kernels.json"

# The CI benchmark gate: reduced preset, schema validation, and a
# GFLOP/s comparison against the committed baseline. bench-service rides
# along so the absolute ServiceQRCP gate always has its rows; bench-dist
# runs the instrumented-communicator consumers (measured ranks, trace
# replay) end to end.
bench-smoke:
	$(GO) run ./cmd/bench-kernels -quick -trace -e2e-m 4000 -o bench_candidate.json
	$(GO) run ./cmd/bench-service -jobs 120 -o bench_candidate.json
	$(GO) run ./cmd/bench-dist -table 3 -trace
	BENCH_TOLERANCE=$(BENCH_TOLERANCE) \
		$(GO) run ./cmd/bench-check -baseline BENCH_kernels.json -candidate bench_candidate.json

# End-to-end out-of-core gate: generate a ~1 GiB binary matrix
# (2M×64 float64), factorize it through the streaming QRCPFile path with
# Q written back to disk, under a 256 MiB GOMEMLIMIT (which also drives
# the panel autotuner) and an aggressive GOGC so the collector cannot
# paper over a materialized matrix. The gate greps the tool's peak-heap
# line and fails above 512 MiB — half the input, so any code path that
# loads A (or Q) whole trips it with a wide margin.
OOC_DIR := e2e_ooc_tmp
e2e-ooc:
	@mkdir -p $(OOC_DIR) bin
	$(GO) build -o bin/matconv ./cmd/matconv
	$(GO) build -o bin/qrcp ./cmd/qrcp
	bin/matconv -gen -rows 2000000 -cols 64 -seed 1 $(OOC_DIR)/a.tsqrmat
	GOMEMLIMIT=256MiB GOGC=5 bin/qrcp -file $(OOC_DIR)/a.tsqrmat \
		-q-out $(OOC_DIR)/q.tsqrmat -scratch-dir $(OOC_DIR) | tee $(OOC_DIR)/run.log
	@peak=$$(awk -F': *' '/^peak heap/ {print $$2+0}' $(OOC_DIR)/run.log); \
	echo "peak heap: $$peak MiB (gate: 512 MiB for a 1024 MiB matrix)"; \
	[ -n "$$peak" ] && [ "$$peak" -lt 512 ] || \
		{ echo "out-of-core run materialized the matrix" >&2; exit 1; }
	bin/matconv -info $(OOC_DIR)/q.tsqrmat
	rm -rf $(OOC_DIR)

cover:
	$(GO) test -cover ./...

# Fail when statement coverage of internal/... + service/ falls below
# COVER_MIN %.
cover-gate:
	@$(GO) test -coverprofile=cover.out ./internal/... ./service/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/... + service coverage: $$total% (gate: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) ? 1 : 0 }' || \
		{ echo "coverage below $(COVER_MIN)%" >&2; exit 1; }

# Full reproduction report at reduced scale (~30 s on a laptop).
repro:
	$(GO) run ./cmd/report -o report.txt
	@echo "wrote report.txt"

# The paper's exact problem sizes (long-running).
repro-paper:
	$(GO) run ./cmd/report -paper -o report-paper.txt
	@echo "wrote report-paper.txt"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/lowrank
	$(GO) run ./examples/rankreveal
	$(GO) run ./examples/distributed
	$(GO) run ./examples/tensortrain
	$(GO) run ./examples/polyfit
	$(GO) run ./examples/spectral

clean:
	rm -f report.txt report-paper.txt test_output.txt bench_output.txt \
		cover.out bench_candidate.json cpu.out heap.out runtime.trace
