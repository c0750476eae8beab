GO ?= go

.PHONY: all build test race vet lint golden bench-smoke bench-e2e clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The invariant gate: go vet plus the repo's own analyzers (bufown,
# lockio, ctxfirst).
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/shhc-vet ./...

# lint is vet plus the pinned external checkers when they are installed
# (CI installs them; offline dev boxes may not have them).
lint: vet
	@command -v staticcheck >/dev/null 2>&1 && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null 2>&1 && govulncheck ./... || echo "govulncheck not installed; skipping"

# The analyzer golden suites alone (they also run under `make test`).
golden:
	$(GO) test ./internal/analysis/...

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# The end-to-end benchmark (its own module, benchmark/): ten untraced runs of
# every workload, recorded as the root BENCH_e2e.json. Compare a later run
# against it with: go run -C benchmark . -compare ../BENCH_e2e.json new.json
bench-e2e:
	$(GO) run -C benchmark . -repeat 10 -seed 49500 -out ../BENCH_e2e.json

clean:
	rm -f cover.out
