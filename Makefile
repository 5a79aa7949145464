# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keep them in sync. The benchmark gates are
# not copied there: CI runs `make gates`.

GO ?= go

# The gates pipe `go test -bench` into awk: a benchmark that fails or
# panics partway still prints its other rows, so the pipe must fail
# when go test does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: build test race fmt vet check loc gates gate-obsv gate-auto gate-mvcc gate-mmap

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l exits 0 even when it lists files: fail on a non-empty list,
# as CI's gofmt step does.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

check: fmt vet build test

# loc prints the module's size the way ROADMAP counts it: lines of Go
# per package that are not tests, not fixtures (testdata) and not the
# frozen benchmark (cmd/xpqbench), then the total. A simplification PR
# reports this table before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/xpqbench/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' \
		| sort -k2

# Benchmark gates: each pipes paired benchmark rows into the one gate
# program (scripts/benchgate.awk: pair by variant, fold, geomean, limit,
# fail when nothing matched). The BENCH_*.json files pin the seeded ratios.
GATE = awk -f scripts/benchgate.awk

# Each gate times something the daemon runs. The word-level BP/rank/select
# kernels left the list with XQO2 version 8: no load, save, open, patch
# or query reaches them, and a microbench win on a structure no query
# executes is not a win (the kernels, their fuzzers and their tests have
# since left the module).
gates: gate-obsv gate-auto gate-mvcc gate-mmap

# The observability layer must not tax the warm path: warm-traced/warm
# at 1.05 over the full query matrix, and warm re-evaluation, traced or
# not, must stay near allocation-free (BENCH_eval.json pins 0 allocs/op;
# 5 leaves margin for runtime noise, checked on every row of every
# reading). On a shared 2-core machine the speed of the same code moves
# by 15 % and more from one second to the next. So both variants of a
# row evaluate over one shared context, are read in turn fifteen times
# each at 10 iterations (the benchmark repeats them, hence -count 1),
# and each keeps its median: a variant's readings taken back to back
# would put the two variants of a large row half a second apart, in
# different weather. An iteration evaluates the row as many times as it
# takes to last 10 us (counted once at setup, the same for both
# variants), so a reading of a sub-us row (Q01, Q10) is not ten single
# evaluations. ns/op is per evaluation; the allocs ceiling holds for
# the whole iteration, so it is stricter.
gate-obsv:
	$(GO) test -run '^$$' -bench 'BenchmarkEvalSteadyState/.*/.*/warm' -benchtime 10x -count 1 -benchmem . \
		| $(GATE) -v num=warm-traced -v den=warm -v limit=1.05 -v allocs=5 -v fold=median

# Auto's route (label chains to the hybrid run, the rest of the
# child/descendant fragment to the TDSTA, everything else to the ASTA)
# must pay for itself on the paper's own workload against forcing the
# optimized ASTA on every query. BENCH_auto.json pins the seeded ratio.
gate-auto:
	$(GO) test -run '^$$' -bench 'BenchmarkAutoSelector' -benchtime 50x . \
		| $(GATE) -v num=auto -v den=optimized -v limit=1.00

# A subtree patch (splice + incremental index maintenance + MVCC
# publish) must beat rebuilding the document from XML. The limit bounds
# the patch's absolute cost, with the reload as the yardstick: it was
# 0.25 when a reload took 23.9 ms; the byte-level XML kernel brought the
# reload to 9.0 ms with the patch path untouched (2.4 -> 2.7 ms, noise),
# so the same bound is 0.25 x 23.9 / 9.0 = 0.67. The two-array document
# made both sides cheaper, the patch by more (1.4 ms against 7-8 ms), and
# the 16-bit labels and per-text-node offsets the patch again (1.3 ms,
# 0.48 MB less to copy), and the 16-bit relative up and size arrays once
# more (0.9 ms: 0.43 MB less, and the suffix is copied, not rewritten),
# and the 16-bit halves of occurrences, text ranks and text offsets once
# more (0.64 ms against 0.81 in pairs: 0.3 MB less, one array per index
# instead of one per label, suffixes shifted chunk by chunk), and labels
# and size in a byte each once more (0.45 ms against 0.63: 0.2 MB less),
# and dropping the balanced-parentheses splice once more (0.36 ms
# against 0.48, both arms no longer building the view);
# the limit stayed where it was. BENCH_mvcc.json pins ~0.06; tripping the
# limit means an accidental O(doc) rebuild in the patch path, not noise.
gate-mvcc:
	$(GO) test -run '^$$' -bench 'BenchmarkPatchVsReload' -benchtime 20x -benchmem ./internal/store/ \
		| $(GATE) -v num=patch-apply -v den=full-reload -v limit=0.67

# Opening an XQO2 mapping must stay a rounding error next to parsing
# and indexing the same document — the entire value of the resident
# format. The limit bounds the open's absolute cost, with the parse as
# the yardstick: it was 0.05 when parse + index took 17.3 ms; the
# byte-level XML kernel brought that to 6.9 ms with the open untouched
# (0.33 -> 0.39 ms, noise), so the same bound is 0.05 x 17.3 / 6.9 =
# 0.13. BENCH_mmap.json pins ~0.016 (0.11 ms with the checksums inline
# and the label names in one heap copy: 0.13 -> 0.11 ms medians over six
# alternating runs; XQO2 version 8 took 0.14 to 0.12, checksumming four
# sections fewer than version 7 and reassembling no balanced-parentheses
# view; version 7 took 0.17 to 0.16, version 6 0.22 to 0.19);
# min of three runs filters one-off page-cache or scheduler hiccups.
gate-mmap:
	$(GO) test -run '^$$' -bench 'BenchmarkMmapOpenVsParse' -benchtime 20x -count 3 ./internal/store/ \
		| $(GATE) -v num=mmap-open -v den=parse -v limit=0.13 -v fold=min
