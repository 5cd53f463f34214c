.PHONY: all build test goldens goldens-update goldens-regen tables-update check vet bench bench-smoke bench-gate bench-tables batch-smoke lint-smoke serve-smoke framework-smoke sharing-smoke vm-smoke ci clean

all: build

build:
	dune build

test: build
	dune runtest

# Regenerates every golden capture in test/golden/ from the CLI into
# _build/goldens/ and diffs the two trees: the committed goldens must be
# exactly what today's nmlc prints.  To accept an intended change, run
# `make goldens-update`, which regenerates them the same way and copies
# them over test/golden/.
goldens: goldens-regen
	diff -r _build/goldens test/golden

goldens-update: goldens-regen
	cp _build/goldens/* test/golden/

goldens-regen: build
	rm -rf _build/goldens && mkdir -p _build/goldens
	set -e; N=_build/default/bin/nmlc.exe; \
	for f in examples/programs/*.nml; do \
	  b=_build/goldens/$$(basename $$f .nml); \
	  $$N analyze $$f > $$b.report; \
	  $$N analyze $$f --stats > $$b.stats; \
	  $$N optimize $$f > $$b.optimized; \
	  $$N compile $$f -O --dump-bytecode > $$b.bytecode; \
	done

# Re-renders every section of test/fixpoints.table and test/flags.table
# from its stored source and rewrites both files, so that `git diff
# test/*.table` shows exactly which verdicts and counters moved.  The
# test suite's legacy-differential and flag-table groups check the same
# renderings against the committed files.
tables-update: build
	dune exec test/support/tables_update.exe

# The differential soundness harness with fault injection on.
check: build
	dune exec bin/nmlc.exe -- check --count 200 --seed 42 --chaos

# The independent annotation verifier over every shipped example, plus
# a seeded mutation-testing smoke (every unsound edit must be caught).
vet: build
	for f in examples/programs/*.nml; do \
	  dune exec bin/nmlc.exe -- vet $$f || exit 1; \
	done
	dune exec bin/nmlc.exe -- vet examples/programs/reverse.nml --mutate 40
	dune exec bin/nmlc.exe -- vet examples/programs/partition_sort.nml --mutate 60

# Regenerates every committed BENCH_PR*.json artifact: each artifact
# experiment of the table in bench/main.ml runs at full size, its
# artifact is written and validated, and the history folds every
# artifact into one schema-stable series.
bench: build
	dune exec bench/main.exe -- --all

# Tiny-budget runs of every artifact experiment: exercises the --json
# records end to end (emit, then re-parse and check each experiment's
# shape and invariants) without the full measurement quota.
bench-smoke: build
	dune exec bench/main.exe -- S1 S2 S3 S4 S5 S6 L1 E1 H1 H2 V1 V2 --smoke --json _build/bench_smoke.json
	dune exec bench/main.exe -- --validate _build/bench_smoke.json

# The perf trajectory gate: every committed artifact the table names must
# still validate, and each experiment's deterministic headline counts
# (evaluation and cell counts -- never wall clock), measured again by its
# own code, must stay within 20% of what the artifact recorded.
bench-gate: build
	dune exec bench/main.exe -- --gate

# The paper's figure and tables (F1, T1-T9, X1, X2): they write no
# records, so this only checks that each still runs to completion.
bench-tables: build
	dune exec bench/main.exe -- F1 T1 T2 T3 T4 T5 T6 T7 T8 T9 X1 X2 > /dev/null

# The persistent cache end to end through the CLI: a second batch run
# over the unchanged examples must perform zero entry evaluations.
batch-smoke: build
	rm -rf _build/batch_smoke_cache
	dune exec bin/nmlc.exe -- batch examples/programs --jobs 2 \
	  --cache _build/batch_smoke_cache > /dev/null
	dune exec bin/nmlc.exe -- batch examples/programs --jobs 2 \
	  --cache _build/batch_smoke_cache | grep -q '; 0 entry evaluation(s)'

# The lint engine end to end through the CLI: every shipped example lints
# without an internal error, SARIF output is well-formed, and a warm
# cached batch replays the cold run's findings byte for byte.
lint-smoke: build
	for f in examples/programs/*.nml; do \
	  dune exec bin/nmlc.exe -- lint $$f > /dev/null; rc=$$?; \
	  if [ $$rc -gt 1 ]; then echo "lint $$f: exit $$rc"; exit 1; fi; \
	done
	dune exec bin/nmlc.exe -- lint --format sarif examples/programs/reverse.nml \
	  | grep -q '"version": "2.1.0"'
	rm -rf _build/lint_smoke_cache
	dune exec bin/nmlc.exe -- batch --lint examples/programs --jobs 2 \
	  --cache _build/lint_smoke_cache > _build/lint_smoke_cold.out; [ $$? -le 1 ]
	dune exec bin/nmlc.exe -- batch --lint examples/programs --jobs 2 \
	  --cache _build/lint_smoke_cache > _build/lint_smoke_warm.out; [ $$? -le 1 ]
	grep -q '; 0 entry evaluation(s)' _build/lint_smoke_warm.out
	head -n -1 _build/lint_smoke_cold.out > _build/lint_smoke_cold.body
	head -n -1 _build/lint_smoke_warm.out > _build/lint_smoke_warm.body
	cmp _build/lint_smoke_cold.body _build/lint_smoke_warm.body

# The pluggable-analysis surface end to end through the CLI: the registry
# lists every analysis, each one reports over a shipped example, and a
# warm cached batch rerun of the usage and spine-liveness analyses
# performs zero entry evaluations out of its own key namespace and
# replays the cold run's reports byte for byte (every record went
# through the codec and the on-disk store).
framework-smoke: build
	dune exec bin/nmlc.exe -- analyze --list-analyses | grep -q 'escape-x-usage'
	dune exec bin/nmlc.exe -- analyze examples/programs/reverse.nml \
	  --analysis usage | grep -q 'U(append, 1) = used'
	dune exec bin/nmlc.exe -- analyze examples/programs/reverse.nml \
	  --analysis spine-liveness | grep -q 'L(append, 1) = spine-live'
	dune exec bin/nmlc.exe -- analyze examples/programs/reverse.nml \
	  --analysis escape-x-usage | grep -q 'P(append, 1) = spine-scratch'
	set -e; N=_build/default/bin/nmlc.exe; O=_build/framework_smoke; \
	for a in usage spine-liveness; do \
	  rm -rf $$O.cache; \
	  $$N batch examples/programs --analysis $$a --jobs 2 --cache $$O.cache > $$O.cold; \
	  $$N batch examples/programs --analysis $$a --jobs 2 --cache $$O.cache > $$O.warm; \
	  grep -q '; 0 entry evaluation(s)' $$O.warm; \
	  head -n -1 $$O.cold > $$O.cold.body; \
	  head -n -1 $$O.warm > $$O.warm.body; \
	  cmp $$O.cold.body $$O.warm.body; \
	done

# The sharing analysis end to end through the CLI: the registry lists it
# with its own cache namespace, the per-argument verdicts over a shipped
# example are the expected ones (append's first spine is rebuilt fresh,
# its second is stitched into the result), the alias-informed optimizer
# actually licenses reuse beyond Theorem 2 on the witness example, and a
# warm cached batch rerun performs zero entry evaluations out of the
# sharing namespace and replays the cold run's reports byte for byte.
sharing-smoke: build
	dune exec bin/nmlc.exe -- analyze --list-analyses \
	  | grep -q 'nmlc/summary-cache-v2/sharing'
	dune exec bin/nmlc.exe -- analyze examples/programs/reverse.nml \
	  --analysis sharing | grep -q 'S(append, 1) = unshared'
	dune exec bin/nmlc.exe -- analyze examples/programs/reverse.nml \
	  --analysis sharing | grep -q 'S(append, 2) = spine-shared'
	dune exec bin/nmlc.exe -- run examples/programs/letspine_reuse.nml -O \
	  | grep -q 'dcons_reuses  5'
	rm -rf _build/sharing_smoke_cache
	dune exec bin/nmlc.exe -- batch examples/programs --analysis sharing --jobs 2 \
	  --cache _build/sharing_smoke_cache > _build/sharing_smoke_cold.out
	dune exec bin/nmlc.exe -- batch examples/programs --analysis sharing --jobs 2 \
	  --cache _build/sharing_smoke_cache > _build/sharing_smoke_warm.out
	grep -q '; 0 entry evaluation(s)' _build/sharing_smoke_warm.out
	head -n -1 _build/sharing_smoke_cold.out > _build/sharing_smoke_cold.body
	head -n -1 _build/sharing_smoke_warm.out > _build/sharing_smoke_warm.body
	cmp _build/sharing_smoke_cold.body _build/sharing_smoke_warm.body

# The analysis daemon end to end through the CLI: a socket server with
# the slow-request fault armed, every method exercised by the one-shot
# client, the daemon's vet output byte-identical to `nmlc vet` on every
# example and on the spine-liveness hints witness, its analyze output
# byte-identical to `nmlc batch --no-cache` on every example (cold, then
# warm with zero evaluations), the in-band error taxonomy (SRV001 on a
# garbage payload, SRV004 on a blown deadline, counted exactly once by a
# server that still answers), and a clean shutdown drain (exit 0).  A
# second server started on the flushed cache directory must then answer
# every example with the same output and zero evaluations, and its
# analyze output with `params.analysis` set to each flag analysis must be
# byte-identical to `nmlc batch --no-cache --analysis` on every example.
# The daemon's lint output must equal `nmlc batch --lint --no-cache` on
# every example.  A trap stops the background server if any check fails.
serve-smoke: build
	rm -rf _build/serve_smoke && mkdir -p _build/serve_smoke
	set -e; \
	N=_build/default/bin/nmlc.exe; S=_build/serve_smoke/s.sock; \
	$$N serve --socket $$S --cache _build/serve_smoke/cache --jobs 2 \
	  --inject-fault slow-request --quiet & SRV=$$!; \
	trap 'kill $$SRV 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -S $$S ] && break; sleep 0.1; done; \
	$$N serve --connect $$S --call status | grep -q '"workers": 2'; \
	$$N serve --connect $$S --call analyze --file examples/programs/reverse.nml \
	  | grep -q '"code": 0'; \
	$$N serve --connect $$S --call lint --file examples/programs/reverse.nml \
	  | grep -q '"findings"'; \
	$$N serve --connect $$S --call vet --file examples/programs/reverse.nml \
	  | grep -q '"code": 0'; \
	O=_build/serve_smoke; \
	printf 'letrec head l = car l; ignore2 x l = x in head [1,2,3] + ignore2 1 [4,5]\n' \
	  > $$O/hints.nml; \
	for f in examples/programs/*.nml $$O/hints.nml; do \
	  $$N vet $$f > $$O/cli.out; \
	  $$N serve --connect $$S --call vet --file $$f > $$O/resp; \
	  printf '%b' "$$(sed -n 's/.*"output": "\(.*\)", "errors".*/\1/p' $$O/resp)" \
	    > $$O/daemon.out; \
	  cmp $$O/cli.out $$O/daemon.out \
	    || { echo "serve-smoke: daemon vet differs from nmlc vet on $$f"; exit 1; }; \
	done; \
	analyze_matches() { \
	  $$N serve --connect $$S --call analyze --file $$1 > $$O/resp; \
	  printf '%b' "$$(sed -n 's/.*"output": "\(.*\)", "errors".*/\1/p' $$O/resp)" \
	    > $$O/daemon.out; \
	  cmp $$O/$$(basename $$1).batch $$O/daemon.out \
	    || { echo "serve-smoke: daemon analyze ($$2) differs from nmlc batch on $$1"; exit 1; }; \
	}; \
	flag_matches() { \
	  $$N batch --no-cache --analysis $$2 $$1 | sed '1d;$$d' > $$O/flag.batch; \
	  $$N serve --connect $$S --raw \
	    "{\"id\": 1, \"method\": \"analyze\", \"params\": {\"path\": \"$$1\", \"analysis\": \"$$2\"}}" \
	    > $$O/resp; \
	  grep -q '"code": 0' $$O/resp \
	    || { echo "serve-smoke: daemon analyze --analysis $$2 failed on $$1"; exit 1; }; \
	  printf '%b' "$$(sed -n 's/.*"output": "\(.*\)", "errors".*/\1/p' $$O/resp)" \
	    > $$O/daemon.out; \
	  cmp $$O/flag.batch $$O/daemon.out \
	    || { echo "serve-smoke: daemon analyze --analysis $$2 differs from nmlc batch on $$1"; exit 1; }; \
	}; \
	lint_matches() { \
	  $$N batch --lint --no-cache $$1 | sed '1d;$$d' > $$O/lint.batch; \
	  $$N serve --connect $$S --call lint --file $$1 > $$O/resp; \
	  printf '%b' "$$(sed -n 's/.*"output": "\(.*\)", "errors".*/\1/p' $$O/resp)" \
	    > $$O/daemon.out; \
	  cmp $$O/lint.batch $$O/daemon.out \
	    || { echo "serve-smoke: daemon lint differs from nmlc batch --lint on $$1"; exit 1; }; \
	}; \
	for f in examples/programs/*.nml; do \
	  lint_matches $$f; \
	  $$N batch --no-cache $$f | sed '1d;$$d' > $$O/$$(basename $$f).batch; \
	  analyze_matches $$f cold; \
	  analyze_matches $$f warm; \
	  grep -q '"evaluations": 0,' $$O/resp \
	    || { echo "serve-smoke: warm analyze of $$f evaluated"; exit 1; }; \
	done; \
	( $$N serve --connect $$S --raw 'this is not json' || true ) \
	  | grep -q 'SRV001'; \
	( $$N serve --connect $$S --call analyze \
	    --file examples/programs/reverse.nml --deadline-ms 1 || true ) \
	  | grep -q 'SRV004'; \
	$$N serve --connect $$S --call status | grep -q '"timeouts": 1,'; \
	$$N serve --connect $$S --call shutdown | grep -q '"stopping": true'; \
	wait $$SRV; \
	$$N serve --socket $$S --cache _build/serve_smoke/cache --jobs 1 --quiet & SRV=$$!; \
	for i in $$(seq 1 100); do [ -S $$S ] && break; sleep 0.1; done; \
	for f in examples/programs/*.nml; do \
	  analyze_matches $$f flushed; \
	  grep -q '"evaluations": 0,' $$O/resp \
	    || { echo "serve-smoke: $$f evaluated on the flushed cache"; exit 1; }; \
	  for a in usage spine-liveness escape-x-usage sharing; do flag_matches $$f $$a; done; \
	done; \
	$$N serve --connect $$S --call shutdown | grep -q '"stopping": true'; \
	wait $$SRV

# The bytecode backend end to end through the CLI: the compile command
# disassembles, and the differential oracle passes with the VM as its
# third leg.  The per-example comparison of both backends' `nmlc run
# --check-arenas` output (result and storage counters, optimized on the
# generational heap and unoptimized on the legacy one) and of their
# results with `nmlc eval` is the cram test test/cli/backends_agree.t,
# which `dune runtest` runs.
vm-smoke: build
	dune build @test/cli/backends_agree
	dune exec bin/nmlc.exe -- compile examples/programs/reverse.nml --dump-bytecode \
	  | grep -q 'tailcall'
	dune exec bin/nmlc.exe -- check --count 40 --seed 7 --chaos

# Everything a merge must survive.
ci: build
	dune runtest
	$(MAKE) goldens
	dune build @soundness
	$(MAKE) vet
	$(MAKE) vm-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-gate
	$(MAKE) bench-tables
	$(MAKE) batch-smoke
	$(MAKE) lint-smoke
	$(MAKE) framework-smoke
	$(MAKE) sharing-smoke
	$(MAKE) serve-smoke

clean:
	dune clean
