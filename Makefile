# Developer entry points. `make check` is what CI runs.

GO ?= go

.PHONY: build test race stress check bench-json bench-sweeps bench-scale bench-bitplane bench-serving bench-memory bench-compare report serve serve-race trace-smoke smoke-examples sweep sweep-smoke sweep-rows-identical sweep-large sweep-xl sweep-xxl fmt vet lint staticcheck govulncheck

build:
	$(GO) build ./...

# bench/ is its own module (bccbench), so `go test ./...` from the root
# never reaches it; its unit tests run here too.
test:
	$(GO) test ./...
	$(GO) -C bench test ./...

race:
	$(GO) test -race ./internal/...

# Twenty race-detector passes over the packages whose tests exercise
# cancellation, concurrent stores and concurrent runs on the pooled
# media, and over the root package's round-loop allocation gates, so
# an ordering-dependent failure shows up here rather than once in a
# while in CI. The gates count only the allocations inside the round loop,
# so the pooled items the race detector drops at random do not move
# them.
stress:
	$(GO) test -race -count=20 . ./cmd/bccd ./internal/engine ./internal/results ./internal/bcc

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# bccvet is the repo's own stdlib-only analysis suite (cmd/bccvet): the
# determinism lint (detpath), context-flow lint (ctxflow), resource
# pairing (pairwise), frozen-type writes (frozenwrite), and the builtin
# shadowing lint (shadow, formerly cmd/lintshadow). Run one analyzer
# with `go run ./cmd/bccvet -run detpath ./...`; suppress a finding with
# `//bccvet:ignore <analyzer> -- <reason>` (the reason is mandatory).
lint:
	$(GO) run ./cmd/bccvet ./...

# staticcheck covers the wider correctness class. The binary is not
# vendored; where it is absent (offline dev containers) the target
# degrades to a notice, and CI installs a pinned version so regressions
# fail the build there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# govulncheck scans for known-vulnerable reachable stdlib symbols. Same
# degrade-to-notice pattern: CI installs a pinned version.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

check: fmt vet lint staticcheck govulncheck build test

# Build and run every example binary; examples must not silently rot.
smoke-examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run "./$$d" >/dev/null; \
	done

# Full benchmark pass over the E-series suite (plus engine cold/warm
# cache benchmarks), recorded as the BENCH_engine.json baseline.
bench-json:
	$(GO) test -bench 'BenchmarkE' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -out BENCH_engine.json

# Record the sweep-grid perf baseline (cold vs. warm per-cell cache).
bench-sweeps:
	$(GO) test -bench 'BenchmarkSweep' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Sweep' -out BENCH_sweeps.json

# Record the large-n substrate baseline: CSR vs. AddEdge graph
# construction, the barbell, grid and torus family builds (the grid's
# allocs gate the arboricity check's peel, which empties it; the
# torus's gate the check of the forests its generator returns, since
# it is its own 4-core), zero-alloc neighbour iteration, and an
# end-to-end large-n sweep cell (BENCH_scale.json).
bench-scale:
	$(GO) test -bench 'BenchmarkScale' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Scale' -out BENCH_scale.json

# Record the bit-plane baseline: the flood-b1×two-cycle@1024 cell on
# the word-packed plane vs. the generic Message oracle, a plane-riding
# O(log n) protocol at 1024, the steady-state round loop's allocation
# profile, and a small flood ladder through the grid scheduler
# (BENCH_bitplane.json). benchtime 5x: the generic oracle is the
# before number (~15 ms per op on a 2-CPU box, the group's slowest
# entry). The group runs at -cpu 1, as the Memory group does: at 2
# CPUs a run's pooled takes miss sync.Pool's per-P caches at random,
# and the group's B/op is bimodal between identical runs.
bench-bitplane:
	$(GO) test -bench 'BenchmarkBitplane' -benchmem -benchtime 5x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Bitplane' -out BENCH_bitplane.json

# Record the serving-armor baseline: admission queue, rate limiter,
# per-request metrics recording, the /metrics scrape, and the job-table
# round trip (BENCH_serving.json). These sit on every bccd request.
bench-serving:
	$(GO) test -bench 'BenchmarkServing' -benchmem -benchtime 100x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Serving' -out BENCH_serving.json

# Record the memory-footprint baseline: bytes/op per protocol×size cell
# through the no-transcript sweep path (BENCH_memory.json). These are
# the numbers the shared-substrate split is accountable to — B/op is
# machine-independent, so CI gates on it with -bytes. The group runs at
# -cpu 1: with more Ps, a run's pooled takes can miss sync.Pool's per-P
# caches at random (BitplaneFloodTwoCycle1024, measured at 2 CPUs, read
# 174 or 234 KB/op from run to run; at -cpu 1 it reads 128 KB/op). It
# runs 20 iterations, as the E, Sweep and Scale groups do: at 2 its
# ns/op swung by half between identical runs.
bench-memory:
	$(GO) test -bench 'BenchmarkMemory' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Memory' -out BENCH_memory.json

# Regression gate: re-measure the E, Sweep, Scale, Bitplane, Serving
# and Memory groups into fresh baselines and compare against the
# checked-in ones. Every group runs at -cpu 1, the setting its
# baseline records; benchjson -compare refuses two files recorded at
# different settings. Exits non-zero on a >25% ns/op or allocs/op
# regression (and, for Memory, B/op). COMPARE_FLAGS=-allocs-only
# restricts the gate to the machine-independent allocation counts —
# what CI uses, since the checked-in ns/op numbers come from a
# different machine than the runner.
bench-compare:
	$(GO) test -bench 'BenchmarkE' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -out /tmp/bench_engine_fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance 25 $(COMPARE_FLAGS) BENCH_engine.json /tmp/bench_engine_fresh.json
	$(GO) test -bench 'BenchmarkSweep' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Sweep' -out /tmp/bench_sweeps_fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance 25 $(COMPARE_FLAGS) BENCH_sweeps.json /tmp/bench_sweeps_fresh.json
	$(GO) test -bench 'BenchmarkScale' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Scale' -out /tmp/bench_scale_fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance 25 $(COMPARE_FLAGS) BENCH_scale.json /tmp/bench_scale_fresh.json
	$(GO) test -bench 'BenchmarkBitplane' -benchmem -benchtime 5x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Bitplane' -out /tmp/bench_bitplane_fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance 25 $(COMPARE_FLAGS) BENCH_bitplane.json /tmp/bench_bitplane_fresh.json
	$(GO) test -bench 'BenchmarkServing' -benchmem -benchtime 100x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Serving' -out /tmp/bench_serving_fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance 25 $(COMPARE_FLAGS) BENCH_serving.json /tmp/bench_serving_fresh.json
	$(GO) test -bench 'BenchmarkMemory' -benchmem -benchtime 20x -cpu 1 -run '^$$' . | $(GO) run ./cmd/benchjson -match '^Memory' -out /tmp/bench_memory_fresh.json
	$(GO) run ./cmd/benchjson -compare -tolerance 25 $(COMPARE_FLAGS) -bytes BENCH_memory.json /tmp/bench_memory_fresh.json

# Regenerate the full experiment report.
report:
	$(GO) run ./cmd/experiments -out EXPERIMENTS.md

# Run the E17 cost-curve sweep grid up to n = 1024 (markdown on
# stdout) — minutes of compute, cached per cell.
sweep:
	$(GO) run ./cmd/experiments -sweep E17 -sizes 16,32,64,128,256,512,1024

# The ladder to n = 4096. Every cell is cached, so re-runs and ladder
# extensions only pay for new cells.
sweep-large:
	$(GO) run ./cmd/experiments -sweep E17 -sizes 16,32,64,128,256,512,1024,2048,4096

# The ladders to n = 8192 — both grids, so the E18 stress rows
# (flood-b1 is its promise-free control) are reproducible too. With
# shared substrates, flood-b1, boruvka and kt0-exchange all climb the
# 8192 rung (the E17 flood-b1 × two-cycle cell at 8192, three seeds,
# takes under 0.1 s on a 2-CPU box). For the full declared ladders to
# 32768, see sweep-xxl.
sweep-xl:
	$(GO) run ./cmd/experiments -sweep E17 -sizes 16,32,64,128,256,512,1024,2048,4096,8192
	$(GO) run ./cmd/experiments -sweep E18 -sizes 16,32,64,256,1024,4096,8192

# The full ladders to n = 32768 — both grids at every declared size,
# with each protocol stopping at its SizeCap (boruvka 16384, sketch
# 2048; flood-b1 and kt0-exchange climb to the top). Shared per-cell
# substrates keep the top rungs inside single-digit GB. flood-b1
# writes each round from two rows and kt0-exchange draws only its
# input-edge ports, so their top rungs are cheap (the two-cycle
# flood-b1 cell at 32768, three seeds, takes under a second on a 2-CPU
# box, the one-cycle kt0-exchange cell about 0.3 s); flood-b1's
# er-threshold cell at 32768 (about 12 s) dominates instead. The
# sketch's decode peels each row against the rows decoded before it,
# so its top rung, 2048, takes about 0.1 s a cell.
# Re-runs only pay for missing cells.
sweep-xxl:
	$(GO) run ./cmd/experiments -sweep E17
	$(GO) run ./cmd/experiments -sweep E18

# Tiny 2×2 sweep grid as CSV — the CI smoke run (uploaded as an
# artifact). Cells are cached individually and this runs at the full
# seed count, so its n=16 cells are byte-shared with full E17 runs of
# the same binary.
sweep-smoke:
	$(GO) run ./cmd/experiments -sweep E17 \
		-protocols kt0-exchange,boruvka -families one-cycle,two-cycle -sizes 8,16 \
		-format csv -out sweep-smoke.csv
	@cat sweep-smoke.csv

# Rows are pinned: five cold E17 sweeps and one E18 sweep, each at
# -parallel 1 and -parallel 2, must agree byte for byte and match the
# md5s checked in at testdata/sweep-rows.md5. The E17 sweeps are every
# protocol to n = 1024, sweep-large's n = 2048 cells, flood-b1 ×
# two-cycle at n = 8192, the largest plane cell (under 0.1 s), and
# kt0-exchange × one-cycle at n = 8192 and at n = 32768, the ladder's
# top (about 0.3 s). The E18 sweep to n = 1024 pins the refusal
# contract: every promise violation answered detectably, none silently
# wrong. A change that alters rows on purpose updates the md5 file and
# says why. CI's sweep-smoke job runs it.
sweep-rows-identical:
	@set -e; root=$$(pwd); dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/experiments" ./cmd/experiments; \
	for p in 1 2; do \
		"$$dir/experiments" -sweep E17 -sizes 16,32,64,128,256,512,1024 \
			-format csv -cache-dir none -parallel $$p > "$$dir/ladder-$$p.csv"; \
		"$$dir/experiments" -sweep E17 -sizes 2048 -families two-cycle,grid \
			-format csv -cache-dir none -parallel $$p > "$$dir/large-$$p.csv"; \
		"$$dir/experiments" -sweep E17 -sizes 8192 -protocols flood-b1 -families two-cycle \
			-format csv -cache-dir none -parallel $$p > "$$dir/flood-8192-$$p.csv"; \
		"$$dir/experiments" -sweep E17 -sizes 8192 -protocols kt0-exchange -families one-cycle \
			-format csv -cache-dir none -parallel $$p > "$$dir/kt0-8192-$$p.csv"; \
		"$$dir/experiments" -sweep E17 -sizes 32768 -protocols kt0-exchange -families one-cycle \
			-format csv -cache-dir none -parallel $$p > "$$dir/kt0-32768-$$p.csv"; \
		"$$dir/experiments" -sweep E18 -sizes 16,64,256,1024 \
			-format csv -cache-dir none -parallel $$p > "$$dir/e18-$$p.csv"; \
	done; \
	for f in ladder large flood-8192 kt0-8192 kt0-32768 e18; do cmp "$$dir/$$f-1.csv" "$$dir/$$f-2.csv"; done; \
	(cd "$$dir" && md5sum -c "$$root/testdata/sweep-rows.md5"); \
	echo "sweep rows identical at -parallel 1 and 2 and pinned by testdata/sweep-rows.md5"

# Traced sweep smoke: run a small E17 sweep with tracing on, write the
# Chrome trace_event file, and assert it is non-empty and well-formed
# (every event a complete "X" with ts/dur/pid/tid, at least one cell).
# CI uploads trace-smoke.json as an artifact — drop it into
# https://ui.perfetto.dev to inspect where the sweep's wall time went.
trace-smoke:
	$(GO) run ./cmd/experiments -sweep E17 \
		-protocols kt0-exchange,flood-b1 -families one-cycle,two-cycle -sizes 8,16 \
		-format csv -cache-dir none -trace-out trace-smoke.json >/dev/null
	$(GO) run ./cmd/tracecheck trace-smoke.json

# Run the bccd experiment job server on :8371.
serve:
	$(GO) run ./cmd/bccd

# Serving lifecycle tests (queue-full 429s, disconnect cancellation,
# drain, /metrics accuracy) under the race detector — what the CI
# serving job runs.
serve-race:
	$(GO) test -race ./cmd/bccd/ ./internal/serving/
