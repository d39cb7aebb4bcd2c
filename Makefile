# Development entry points. CI runs the same steps (see
# .github/workflows/ci.yml); `make bench` is how the checked-in
# BENCH_*.json trajectory is produced — run it once per PR and commit
# the artifact so benchmark regressions are visible PR-over-PR.

BENCH_OUT ?= BENCH_PR15.json
# The archived trajectory runs every benchmark a fixed number of times:
# -benchtime 3x / -count 1 means 3 iterations per op for every result, so
# PR-over-PR artifacts average the same amount of work and their diffs
# are comparable (the PR4 artifact recorded iterations:1 everywhere —
# single samples of multi-second benches). Override BENCH_TIME (e.g.
# BENCH_TIME=1s) locally for tighter numbers on fast benches.
BENCH_TIME ?= 3x
BENCH_COUNT ?= 1
# Baseline the bench-diff target compares against.
BENCH_BASE ?= BENCH_PR15.json

# Third-party lint passes are pinned and run via `go run` so nothing is
# installed globally and go.mod stays dependency-free. Both need the
# module proxy; `make lint` probes for it first and skips them with a
# notice when offline, so the in-tree passes (gofmt, vet, krakcheck)
# still gate everywhere.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1
GOVULNCHECK ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: test race cover bench bench-diff profile fmt vet lint lint-fix

test:
	go build ./... && go test ./...

race:
	go test -race ./...

cover:
	go test -coverprofile=cover.out -coverpkg=./... ./...
	go tool cover -func=cover.out | tail -1

bench:
	# No pipe: a pipeline would exit with tee's status and let a failing
	# benchmark run publish a silently truncated artifact.
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) ./... > bench.txt || { cat bench.txt; rm -f bench.txt; exit 1; }
	cat bench.txt
	go run ./cmd/bench2json < bench.txt > $(BENCH_OUT)
	rm -f bench.txt
	@echo "wrote $(BENCH_OUT)"

# bench-diff compares a fresh artifact against the checked-in baseline
# (benchstat-style ns/op and allocs/op deltas). CI runs this after every
# bench job (BENCH_OUT=bench.json) so regressions land in the log, not
# just the artifact. Refuses to diff a file against itself — with the
# defaults that would always report "no change".
bench-diff:
	@if [ "$(BENCH_BASE)" = "$(BENCH_OUT)" ]; then \
		echo "bench-diff: BENCH_BASE and BENCH_OUT are both $(BENCH_OUT);"; \
		echo "run 'make bench BENCH_OUT=bench.json' first, then 'make bench-diff BENCH_OUT=bench.json'"; \
		exit 1; \
	fi
	go run ./cmd/bench2json -diff $(BENCH_BASE) $(BENCH_OUT)

# profile captures CPU and allocation profiles of the flagship workload
# (a cold multi-PE simulate sweep) so the next perf investigation starts
# with data: go tool pprof cpu.prof / mem.prof.
PROFILE_ARGS ?= sweep -op simulate -deck medium -pe 8,16,32,64,128 -quick
profile:
	go run ./cmd/krak $(PROFILE_ARGS) -cpuprofile cpu.prof -memprofile mem.prof > /dev/null
	@echo "wrote cpu.prof mem.prof (from: krak $(PROFILE_ARGS))"

fmt:
	gofmt -l .

vet:
	go vet ./...

# lint is the full static gate CI runs: formatting, go vet, the in-tree
# krakcheck suite (determinism, arena hygiene, typed errors, bounded
# parsers, context flow — see docs/ARCHITECTURE.md "Static analysis"),
# then pinned staticcheck and govulncheck when the proxy is reachable.
# The skip branch fires only when the tool cannot be *downloaded*; a
# finding from a downloaded tool still fails the target.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	go vet ./...
	go run ./cmd/krakcheck ./...
	@if go run $(STATICCHECK) -version >/dev/null 2>&1; then \
		echo "go run $(STATICCHECK) ./..."; \
		go run $(STATICCHECK) ./... || exit 1; \
	else \
		echo "lint: staticcheck not downloadable (offline?); skipping"; \
	fi
	@if go run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		echo "go run $(GOVULNCHECK) ./..."; \
		go run $(GOVULNCHECK) ./... || exit 1; \
	else \
		echo "lint: govulncheck not downloadable (offline?); skipping"; \
	fi

# lint-fix applies every mechanical remedy the gate knows how to make:
# formatting, `go fix` modernizations, and krakcheck's suggested
# rewrites (today: the maprange sorted-keys loop).
lint-fix:
	gofmt -w .
	go fix ./...
	go run ./cmd/krakcheck -fix ./...
