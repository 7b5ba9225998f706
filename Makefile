# dragonvar build/test/reproduction targets.

GO ?= go
CACHE ?= testdata/campaign.gob
DAYS ?= 130
SEED ?= 42

.PHONY: all build test vet race fuzz lint-docs verify bench campaign report plots csv clean

all: build vet test

build:
	$(GO) build ./...

# vet also fails when any Go file is not gofmt-formatted.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l: these files need gofmt:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Native fuzzing: run each fuzz target for FUZZTIME. Plain `go test ./...`
# already replays every seed corpus under testdata/fuzz/; a crasher found
# here lands there as a new seed.
FUZZTIME ?= 10s
FUZZ_TARGETS = \
	./internal/framelog:FuzzLog \
	./internal/telemetry:FuzzParseTraceparent \
	./internal/dist:FuzzDecodeRun \
	./internal/modelstore:FuzzObjectDecode \
	./internal/traceio:FuzzReader \
	./internal/rng:FuzzSourceMatchesMathRand

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:} ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) "$${t%%:*}"; \
	done

# Documentation lint: every package has a godoc comment, intra-repo
# markdown links resolve, docs/OBSERVABILITY.md covers every telemetry
# name, and every metric name has a reader. (Also part of plain
# `make test`; split out so doc-only changes can be checked in isolation.)
lint-docs:
	$(GO) test -run 'TestPackageDocComments|TestMarkdownLinks|TestObservabilityDocCoverage|TestMetricNamesHaveReaders' .

# Tier-1 verification: everything the merge gate runs.
verify: build vet lint-docs test race

# Full benchmark harness: regenerates every table/figure from the cached
# campaign (generated on first run, ~5 minutes).
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Simulate the four-month controlled-experiment campaign.
campaign:
	$(GO) run ./cmd/dfvar campaign -days $(DAYS) -seed $(SEED) -cache $(CACHE)

# Regenerate every table and figure of the paper (text form).
report:
	$(GO) run ./cmd/dfvar report -cache $(CACHE) -days $(DAYS) -seed $(SEED) all

# Figure SVGs and CSV dumps.
plots:
	$(GO) run ./cmd/dfvar plot -cache $(CACHE) -days $(DAYS) -seed $(SEED) -out plots

csv:
	$(GO) run ./cmd/dfvar export -cache $(CACHE) -days $(DAYS) -seed $(SEED) -out csv

clean:
	rm -rf plots csv
