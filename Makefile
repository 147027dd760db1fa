GO ?= go

.PHONY: build test race bench benchdiff chaos search-accept paper-accept verify fmt stress purego setup-identity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every workload of the repository's benchmark (bench/,
# declared in BENCHMARK.json) once at seed 1, each in its own child
# process, and writes the runs to bench/out/run-seed1.json. It exits 1
# when a workload's output digest does not match bench/golden.json.
bench:
	bash bench/run.sh run -seed 1

# benchdiff judges the runs `make bench` just wrote against the committed
# baseline under BENCHMARK.json's bounds (better, no worse, regressed or
# unresolved per workload and metric). Only runs made on the machine the
# baseline was measured on compare meaningfully.
benchdiff:
	bash bench/run.sh compare bench/baseline.json bench/out/run-seed1.json

# chaos runs the fault-injection acceptance suites under the race
# detector: faults from the fakes behind the stack (evaluators that fail
# or panic, a batch evaluator that fails a call whole, an engine
# resolver that panics, a client that drops its event stream) through
# the engine's degradation path, the cache's singleflight, the full
# HTTP stack and the kill-and-restart-mid-sweep durability scenario
# (resumed fronts must be bit-identical to an uninterrupted run).
# Deterministic by construction (every fault is scheduled by call count
# or by design point), so it gates CI like any other test.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Inject(ed|ion)' \
		./internal/cache ./internal/dse ./internal/serve

# search-accept is the adaptive-search acceptance gate: the budgeted
# search must recover >= 95 % of the exhaustive Pareto front while
# spending <= 10 % of its evaluations, deterministically. The
# search-vs-exhaustive comparison table lands in SEARCH_ACCEPT.txt
# (ignored by git; CI uploads it as a build artifact).
search-accept:
	SEARCH_ACCEPT_OUT=$(CURDIR)/SEARCH_ACCEPT.txt \
		$(GO) test -count=1 -run 'TestSearchAcceptance' ./internal/search
	@echo "wrote SEARCH_ACCEPT.txt"

# paper-accept regenerates the canonical reproduction at full scale —
# `efficsense all -records 120 -noise-steps 8 -seed 1 -csv F`, the ECG
# sweep `efficsense sweep -scenario ecg-telemonitoring -records 120
# -noise-steps 8 -seed 1 -csv F` and `efficsense variants -records 120
# -seed 1` — and compares it byte for byte with
# results/all_records120.txt, results/sweep.csv, results/sweep_ecg.csv
# and results/variants_records120.txt: first in the default build
# (about 30 s), then with the vector kernels compiled out (-tags
# purego, one to two minutes). The canonical run's kernel calls all
# have lengths the vector loops cover, so a fault in a kernel's scalar
# tail shows only in the second. A change that moves a printed figure
# fails here; a deliberate one regenerates those files with the same
# commands and says so.
paper-accept:
	$(GO) test -count=1 -run '^TestPaperAccept$$' ./cmd/efficsense
	$(GO) test -count=1 -tags purego -run '^TestPaperAccept$$' ./cmd/efficsense

# stress repeats the timing-sensitive packages (the HTTP stack, the
# journal) 20 times, so a flaky test fails before merge rather than on
# main.
stress:
	$(GO) test -count=20 ./internal/serve ./internal/wal

# purego runs the random-stream, kernel, converter, reconstruction,
# detector, chain and evaluator suites with the vector kernels
# (internal/xrand, internal/dsp) compiled out. The kernels promise
# results bit-identical to their pure-Go loops; the stream, kernel, FFT,
# Welch, DCT, SAR, encoder, OMP, block-OMP and detector reference tests
# and the chain and evaluator golden fixtures (every chain's Run digests,
# EvaluateBatch and EvaluateSine bits) check that promise in this build
# too.
# It then reruns the random-stream, kernel, converter, reconstruction and
# chain suites built for GOAMD64=v3, where the compiler could use FMA:
# the Go loops match the kernels (and math/rand) only while it does not
# fuse a*b ± c, so a toolchain that starts fusing fails here instead of
# moving results.
purego:
	$(GO) test -tags purego ./internal/xrand ./internal/dsp ./internal/adc ./internal/cs ./internal/classify ./internal/chain ./internal/core
	GOAMD64=v3 $(GO) test ./internal/xrand ./internal/dsp ./internal/cs ./internal/adc ./internal/chain

# setup-identity runs the suite set-up golden and the oracle tests of the
# set-up kernels (coloured noise, resampling, the forward DCT, the sparse
# training copies, detector training, dataset synthesis and evaluator
# prep) with one, two and four workers. Set-up fans records out over
# GOMAXPROCS and assembles them in record order; this checks the result
# is bit-identical with fewer and with more workers than records.
setup-identity:
	$(GO) test -count=1 -cpu 1,2,4 -run 'MatchesReference|TestSetupGolden' \
		./internal/xrand ./internal/dsp ./internal/eeg ./internal/classify \
		./internal/core ./internal/experiments

# fmt fails when any file needs gofmt, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# verify is the tier-1 gate: formatting, vet (of this module and of the
# benchmark's module in bench/, which calls into dse, serve and
# experiments, so an API change that breaks the benchmark fails here and
# not only in CI's bench tests; vet compiles it without leaving a binary
# behind), build, the full test suite under the race detector with
# shuffled execution order (hidden inter-test dependencies fail
# loudly), one run of every benchmark of
# the root package (the paper's tables, figures and ablations), of the
# random-stream, kernel, converter and reconstruction packages and of
# the warm /v1/evaluate
# benchmark (`go test` compiles benchmarks but never runs them, and a
# benchmark cited as evidence must not panic), and short fuzz smokes
# over the streaming report emitters, the search query parser, the
# journal decoder, the scenario name validator, the POST /v1/evaluate
# body decoder (wire-facing parsers all) and the /v1/evaluate reply
# appender, refereed by encoding/json. The serve smokes bound
# minimisation of each new corpus entry to 1 s: the decoder's seed is a
# 96-point batch body, the appender's input has fifteen arguments, and
# minimising either would otherwise take the whole smoke. Their -fuzz
# patterns are anchored because go test fuzzes one target per run.
verify: fmt
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/xrand ./internal/dsp ./internal/adc ./internal/cs
	$(GO) test -run '^$$' -bench '^BenchmarkEvaluateWarm$$' -benchtime 1x ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzNDJSONRow -fuzztime 10s ./internal/report
	$(GO) test -run '^$$' -fuzz FuzzParseGoal -fuzztime 10s ./internal/search
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 10s ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzParseScenarioName -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvaluateRequest$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzResultJSON$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve
