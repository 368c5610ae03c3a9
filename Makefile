# Tier-1 gate (see ROADMAP.md): `make check` must pass — a clean build
# with zero warnings plus the full test suite — before any PR lands.

.PHONY: all check build test api-check examples-smoke paper-smoke bench bench-diff serve-smoke serve-scale volumes-smoke faultsweep-smoke wrap-smoke recovery-smoke scavenge-smoke cli-smoke timeline-smoke watch-smoke why-smoke qdepth-smoke stats-smoke perf-smoke fmt fmt-check loc ci clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

# API gate: every value a lib/**/*.mli exports must be referenced by some
# other source file: another library module, bin/, bench/, perfbench/,
# test/ or examples/. `dune build @check` leaves a .cmt for every module,
# executable and test; scripts/api_check.py reads each one's identifier
# references with `ocamlcmt -annot` and fails listing every `val` that
# nothing outside its own module refers to (members of `module type`
# blocks are signatures and are skipped). A value only its own module
# uses belongs in the .ml alone; a value nothing uses is deleted.
api-check:
	dune build @check
	python3 scripts/api_check.py

# Example smoke: the five programs under examples/ call the library too
# (they alone keep Remote, Fsd.last_used and Cfs.import_cached exported),
# so CI runs them rather than only compiling them. Each must exit 0, and
# the verdict lines of crash_recovery, remote_cache and bulk_build (FSD
# does the fewest I/Os of the three file systems on the make/do build)
# must hold.
examples-smoke:
	dune build
	rm -rf _build/examples-smoke && mkdir -p _build/examples-smoke
	@for e in quickstart crash_recovery bulk_build remote_cache design_model; do \
		./_build/default/examples/$$e.exe > _build/examples-smoke/$$e.out || \
			{ echo "examples-smoke: $$e exited $$?"; exit 1; }; \
	done
	@grep -q "^structural check: ok$$" _build/examples-smoke/crash_recovery.out || \
		{ echo "examples-smoke: crash_recovery structural check failed"; exit 1; }
	@grep -q "^all committed contents intact: true$$" _build/examples-smoke/crash_recovery.out || \
		{ echo "examples-smoke: crash_recovery lost committed contents"; exit 1; }
	@grep -q "^last-used time survives a crash: true" _build/examples-smoke/remote_cache.out || \
		{ echo "examples-smoke: remote_cache lost the last-used time"; exit 1; }
	@grep -q "rolled back to the committed value .*: true$$" _build/examples-smoke/remote_cache.out || \
		{ echo "examples-smoke: remote_cache kept an uncommitted touch"; exit 1; }
	@grep -q "^FSD does the fewest I/Os of the three: true$$" _build/examples-smoke/bulk_build.out || \
		{ echo "examples-smoke: bulk_build: FSD did not do the fewest I/Os"; exit 1; }
	@echo "examples-smoke: five examples ran, verdicts true"

# Paper-harness smoke: every section of the paper harness must run to
# exit 0 and print its heading: the five "Table N." and the nine
# "R1."-"R9." titles. A section that raises fails here instead of at the next manual
# `make bench`. R9's two verdict lines must read true: each allocator's
# map holds exactly its live files' sectors. The numbers are not compared
# yet: that needs a committed snapshot of them (BENCH_PAPER.json on the
# ROADMAP).
paper-smoke:
	dune build bench/main.exe
	rm -rf _build/paper-smoke && mkdir -p _build/paper-smoke
	./_build/default/bench/main.exe table1 table2 table3 table4 table5 \
		recovery-model group-commit log-records vam model log-util vam-logging \
		log-size fragmentation > _build/paper-smoke/out.txt
	@for h in "Table 1" "Table 2" "Table 3" "Table 4" "Table 5" \
		R1 R2 R3 R4 R5 R6 R7 R8 R9; do \
		grep -q "^$$h\. " _build/paper-smoke/out.txt || \
			{ echo "paper-smoke: no '$$h.' heading"; exit 1; }; \
	done
	@test "$$(grep -c ' every allocated sector belongs to a live file: true$$' _build/paper-smoke/out.txt)" = 2 || \
		{ echo "paper-smoke: R9: an allocator holds sectors no live file owns"; exit 1; }
	@echo "paper-smoke: Tables 1-5 and R1-R9 ran, R9's allocators leak nothing"

# Reproduce every paper table, then regenerate every committed BENCH_*.json
# snapshot (bench/snapshots.ml lists them: observability, group-commit
# scaling, crash sweep, restart time, log-wrap endurance, saturation
# sweep, latency anatomy, multi-volume scale-out and disk-scheduler
# sweep) so reviewers can diff them. A snapshot whose named checks fail
# is still written, and the harness exits 1.
bench:
	dune exec bench/main.exe
	dune exec bench/main.exe -- snapshots

# Snapshot drift gate: regenerate every snapshot into _build/bench-diff/
# and structurally compare it against the committed copy (timing-flavoured
# fields get 10% relative tolerance, everything else must match exactly).
# Every committed and every fresh snapshot must also carry a non-empty
# top-level "checks" object whose entries are all true. Exits non-zero on
# any drift or failed check.
bench-diff:
	dune exec bench/main.exe -- diff

# Determinism smoke: two same-seed 2-client server runs must produce
# byte-identical JSON reports (the server's core contract). Then a
# malformed image: cedar ls on a truncated copy of the volume must exit 1
# with "not a valid disk image", not die on an uncaught exception. Then
# scale: 256 make/do clients on 8 volumes must all run, with no client
# error and no aborted session (--clients has no upper cap). Last, an
# open-loop rate that is not a finite positive number (nan) must be
# refused with exit 1, not run with every arrival due at time 0.
serve-smoke:
	dune build bin/cedar.exe
	rm -rf _build/serve-smoke && mkdir -p _build/serve-smoke
	./_build/default/bin/cedar.exe mkfs _build/serve-smoke/vol.img > /dev/null
	./_build/default/bin/cedar.exe serve _build/serve-smoke/vol.img \
		--clients 2 --json > _build/serve-smoke/run1.json
	./_build/default/bin/cedar.exe serve _build/serve-smoke/vol.img \
		--clients 2 --json > _build/serve-smoke/run2.json
	cmp _build/serve-smoke/run1.json _build/serve-smoke/run2.json
	@echo "serve-smoke: deterministic"
	head -c 1000 _build/serve-smoke/vol.img > _build/serve-smoke/truncated.img
	@./_build/default/bin/cedar.exe ls _build/serve-smoke/truncated.img \
		2> _build/serve-smoke/truncated.err; status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "serve-smoke: cedar ls on a truncated image exited $$status, not 1"; exit 1; fi
	@grep -q "^cedar: _build/serve-smoke/truncated.img: not a valid disk image: " \
		_build/serve-smoke/truncated.err || \
		{ echo "serve-smoke: no 'not a valid disk image' message"; exit 1; }
	@echo "serve-smoke: truncated image refused"
	./_build/default/bin/cedar.exe serve --volumes 8 --clients 256 --rounds 1 \
		--json > _build/serve-smoke/c256.json
	@python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(not (r["errors"] == 0 and r["aborted"] == 0 and len(r["sessions"]) == 256))' \
		_build/serve-smoke/c256.json || \
		{ echo "serve-smoke: 256 clients did not all run clean"; exit 1; }
	@echo "serve-smoke: 256 clients on 8 volumes, 0 errors, 0 aborted"
	@./_build/default/bin/cedar.exe serve _build/serve-smoke/vol.img --open-loop nan \
		> /dev/null 2>&1; status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "serve-smoke: --open-loop nan exited $$status, not 1"; exit 1; fi
	@echo "serve-smoke: --open-loop nan refused"

# Scaling probe (not part of ci): the wall time per op of whole `cedar
# serve --rounds 1` processes at 64, 256, 1,024 and 4,096 clients, on 8
# fresh in-memory volumes and on one mkfs'd t300 image (made in
# _build/serve-scale). One line per run: wall seconds, ops, us per op.
# ~20 s; the 4,096-client run on 8 volumes peaks near 1.1 GB.
serve-scale:
	dune build bin/cedar.exe
	python3 scripts/serve_scale.py

# Multi-volume determinism smoke: two same-seed 2-volume sharded server
# runs (fresh in-memory volumes, no image) must produce byte-identical
# JSON reports, and the report must carry the per-volume array.
volumes-smoke:
	dune build bin/cedar.exe
	rm -rf _build/volumes-smoke && mkdir -p _build/volumes-smoke
	./_build/default/bin/cedar.exe serve --volumes 2 --clients 4 \
		--json > _build/volumes-smoke/run1.json
	./_build/default/bin/cedar.exe serve --volumes 2 --clients 4 \
		--json > _build/volumes-smoke/run2.json
	cmp _build/volumes-smoke/run1.json _build/volumes-smoke/run2.json
	@grep -q '"volumes"' _build/volumes-smoke/run1.json
	@echo "volumes-smoke: deterministic"

# Crash-injection smoke: kill the 2-client server at every sector write
# of the first three force intervals, once per tear mode, and reboot each
# time. Then the wrap sweep: the churn workload's clean run, and a crash
# at every sector write of its wrap window (204 runs, ~0.2 s). Every
# sweep first gives its crash-free run the same verdict as each crash
# point, and cedar faultsweep exits non-zero on any recovery-contract
# violation, so these lines ARE the assertion.
faultsweep-smoke:
	dune build bin/cedar.exe
	./_build/default/bin/cedar.exe faultsweep --clients 2 --max-forces 3 \
		--tear all > /dev/null
	./_build/default/bin/cedar.exe faultsweep --wrap --tear none > /dev/null
	@echo "faultsweep-smoke: zero violations"

# Log-wrap smoke: a bounded churn run that wraps the log at least once,
# twice with the same seed. cedar churn exits non-zero on any violation
# of the crash-contract verdict (structural check, alien names, the
# oracle, VAM agreement, a non-zero replay or a changed namespace after
# the clean shutdown) or too few wraps, and the two JSON summaries must
# be byte-identical. The run must also drive the one home-write pass
# both ways: name-table pages written home (fnt_home_writes > 0) and
# background demon passes that wrote something (home_write_bursts > 0).
# Last, a negative --force-every must be refused with exit 1, not run as
# if it were 0.
wrap-smoke:
	dune build bin/cedar.exe
	rm -rf _build/wrap-smoke && mkdir -p _build/wrap-smoke
	./_build/default/bin/cedar.exe churn --tiny --ops 60 --min-wraps 1 \
		--json > _build/wrap-smoke/run1.json
	./_build/default/bin/cedar.exe churn --tiny --ops 60 --min-wraps 1 \
		--json > _build/wrap-smoke/run2.json
	cmp _build/wrap-smoke/run1.json _build/wrap-smoke/run2.json
	@python3 -c 'import json, sys; r = json.load(open(sys.argv[1])); sys.exit(not (r["fnt_home_writes"] > 0 and r["home_write_bursts"] > 0))' \
		_build/wrap-smoke/run1.json || \
		{ echo "wrap-smoke: the churn run wrote no page home or ran no home-write burst"; exit 1; }
	@echo "wrap-smoke: wrapped, clean, deterministic, home writes and demon bursts seen"
	@./_build/default/bin/cedar.exe churn --force-every=-1 > /dev/null 2>&1; \
	status=$$?; if [ $$status -ne 1 ]; then \
		echo "wrap-smoke: cedar churn --force-every=-1 exited $$status, not 1"; exit 1; fi
	@echo "wrap-smoke: --force-every=-1 refused"

# Restart smoke: the harness exits 1 when the recovery snapshot's
# single_pass check fails (a crash reboot replays the wrong record count
# or reads any log body sector more than once) or its replay_linear
# check does — the run IS the check.
recovery-smoke:
	dune exec bench/main.exe -- recovery --out _build/BENCH_RECOVERY.smoke.json \
		> /dev/null
	@echo "recovery-smoke: single-pass replay holds"

# CLI recovery smoke: crash, recover and scavenge on a small image made
# with the VAM-logging extension flag. A file put
# before the crashes must read back cmp-equal after recover and after
# scavenge, and info must end with a passing structural check. recover
# must replay the VAM from the log both before and after the scavenger
# rewrites the boot page, which shows the page kept the VAM-logging flag.
# Last, a failing structural check must fail the command: on a fresh
# small image with one file, the file's leader (sector 39, the first of
# the small area) is marked damaged by rewriting the image's trailing
# damaged-sector list (count 0 becomes count 1, sector 39), and info
# must print the failed check and exit 1. The file must still read back
# cmp-equal: get reads its data without the lost leader and rewrites the
# leader from the name-table entry (get does not save the image, so the
# damage stays for the next step). Then scavenge must heal it:
# it keeps the intact name-table entry and rewrites its leader, exits 0,
# info ends with a passing check and the file reads back cmp-equal.
# Then the twin-copy read: on another fresh small image with one file,
# copy A of the name-table anchor (page 0, sector 4639, the first of
# fntA, which every boot reads) is marked damaged the same way. recover
# must exit 0, having rewritten copy A from copy B (the saved image's
# damaged-sector list is empty again), info must end with a passing
# check and the file must read back cmp-equal.
scavenge-smoke:
	dune build bin/cedar.exe
	rm -rf _build/scavenge-smoke && mkdir -p _build/scavenge-smoke
	./_build/default/bin/cedar.exe mkfs _build/scavenge-smoke/vol.img --geometry small \
		--log-vam > /dev/null
	seq 1 700 > _build/scavenge-smoke/file
	./_build/default/bin/cedar.exe put _build/scavenge-smoke/vol.img doc/file \
		< _build/scavenge-smoke/file > /dev/null
	./_build/default/bin/cedar.exe crash _build/scavenge-smoke/vol.img > /dev/null
	./_build/default/bin/cedar.exe recover _build/scavenge-smoke/vol.img \
		> _build/scavenge-smoke/recover1.txt
	@grep -q "VAM replayed from the log" _build/scavenge-smoke/recover1.txt || \
		{ echo "scavenge-smoke: recover did not replay the VAM from the log"; exit 1; }
	./_build/default/bin/cedar.exe get _build/scavenge-smoke/vol.img doc/file > _build/scavenge-smoke/get1
	cmp _build/scavenge-smoke/file _build/scavenge-smoke/get1
	./_build/default/bin/cedar.exe crash _build/scavenge-smoke/vol.img > /dev/null
	./_build/default/bin/cedar.exe scavenge _build/scavenge-smoke/vol.img > /dev/null
	./_build/default/bin/cedar.exe get _build/scavenge-smoke/vol.img doc/file > _build/scavenge-smoke/get2
	cmp _build/scavenge-smoke/file _build/scavenge-smoke/get2
	./_build/default/bin/cedar.exe info _build/scavenge-smoke/vol.img > _build/scavenge-smoke/info.txt
	@tail -n 1 _build/scavenge-smoke/info.txt | grep -qx "structural check: ok" || \
		{ echo "scavenge-smoke: info after scavenge did not end 'structural check: ok'"; exit 1; }
	./_build/default/bin/cedar.exe crash _build/scavenge-smoke/vol.img > /dev/null
	./_build/default/bin/cedar.exe recover _build/scavenge-smoke/vol.img \
		> _build/scavenge-smoke/recover2.txt
	@grep -q "VAM replayed from the log" _build/scavenge-smoke/recover2.txt || \
		{ echo "scavenge-smoke: the scavenged boot page lost the VAM-logging flag"; exit 1; }
	@echo "scavenge-smoke: recover and scavenge keep the file and the stamped flags"
	./_build/default/bin/cedar.exe mkfs _build/scavenge-smoke/damaged.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe put _build/scavenge-smoke/damaged.img doc/a \
		< _build/scavenge-smoke/file > /dev/null
	python3 -c 'import struct, sys; p = sys.argv[1]; b = open(p, "rb").read(); assert b[-4:] == bytes(4); open(p, "wb").write(b[:-4] + struct.pack("<II", 1, 39))' \
		_build/scavenge-smoke/damaged.img
	@./_build/default/bin/cedar.exe info _build/scavenge-smoke/damaged.img \
		> _build/scavenge-smoke/damaged.txt; status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "scavenge-smoke: info on a damaged leader exited $$status, not 1"; exit 1; fi
	@tail -n 1 _build/scavenge-smoke/damaged.txt | \
		grep -qx "structural check FAILED: doc/a!000001: leader sector damaged" || \
		{ echo "scavenge-smoke: info did not report the damaged leader"; exit 1; }
	@echo "scavenge-smoke: a failed structural check exits 1"
	./_build/default/bin/cedar.exe get _build/scavenge-smoke/damaged.img doc/a \
		> _build/scavenge-smoke/get-damaged
	cmp _build/scavenge-smoke/file _build/scavenge-smoke/get-damaged
	@echo "scavenge-smoke: a damaged leader leaves its file readable"
	./_build/default/bin/cedar.exe scavenge _build/scavenge-smoke/damaged.img \
		> _build/scavenge-smoke/healed.txt
	./_build/default/bin/cedar.exe info _build/scavenge-smoke/damaged.img \
		> _build/scavenge-smoke/healed-info.txt
	@tail -n 1 _build/scavenge-smoke/healed-info.txt | grep -qx "structural check: ok" || \
		{ echo "scavenge-smoke: info after scavenging the damaged leader did not end 'structural check: ok'"; exit 1; }
	./_build/default/bin/cedar.exe get _build/scavenge-smoke/damaged.img doc/a \
		> _build/scavenge-smoke/get3
	cmp _build/scavenge-smoke/file _build/scavenge-smoke/get3
	@echo "scavenge-smoke: scavenge rewrites the damaged leader"
	./_build/default/bin/cedar.exe mkfs _build/scavenge-smoke/twin.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe put _build/scavenge-smoke/twin.img doc/a \
		< _build/scavenge-smoke/file > /dev/null
	python3 -c 'import struct, sys; p = sys.argv[1]; b = open(p, "rb").read(); assert b[-4:] == bytes(4); open(p, "wb").write(b[:-4] + struct.pack("<II", 1, 4639))' \
		_build/scavenge-smoke/twin.img
	./_build/default/bin/cedar.exe recover _build/scavenge-smoke/twin.img > /dev/null
	@python3 -c 'import sys; sys.exit(open(sys.argv[1], "rb").read()[-4:] != bytes(4))' \
		_build/scavenge-smoke/twin.img || \
		{ echo "scavenge-smoke: recover did not rewrite the damaged anchor copy"; exit 1; }
	./_build/default/bin/cedar.exe info _build/scavenge-smoke/twin.img \
		> _build/scavenge-smoke/twin-info.txt
	@tail -n 1 _build/scavenge-smoke/twin-info.txt | grep -qx "structural check: ok" || \
		{ echo "scavenge-smoke: info after a damaged anchor copy did not end 'structural check: ok'"; exit 1; }
	./_build/default/bin/cedar.exe get _build/scavenge-smoke/twin.img doc/a \
		> _build/scavenge-smoke/get-twin
	cmp _build/scavenge-smoke/file _build/scavenge-smoke/get-twin
	@echo "scavenge-smoke: a damaged anchor copy is rewritten from its twin"

# CLI smoke: every cedar command on fresh small FSD and CFS images
# (scripts/cli_smoke.sh: mkfs, put, get cmp-equal to the input, ls, rm,
# info, crash, recover, scavenge, stats, trace --limit 5, trace --chrome;
# inspect and why --chrome on FSD, with both Chrome files valid JSON;
# inspect, serve and why on CFS must exit 1 naming the FSD volume they
# need). A second run on fresh images must print byte-identical output
# and leave cmp-identical images.
cli-smoke:
	dune build bin/cedar.exe
	rm -rf _build/cli-smoke && mkdir -p _build/cli-smoke
	sh scripts/cli_smoke.sh ./_build/default/bin/cedar.exe _build/cli-smoke/run \
		> _build/cli-smoke/out1.txt
	mv _build/cli-smoke/run _build/cli-smoke/run1
	sh scripts/cli_smoke.sh ./_build/default/bin/cedar.exe _build/cli-smoke/run \
		> _build/cli-smoke/out2.txt
	cmp _build/cli-smoke/out1.txt _build/cli-smoke/out2.txt
	cmp _build/cli-smoke/run1/fsd.img _build/cli-smoke/run/fsd.img
	cmp _build/cli-smoke/run1/cfs.img _build/cli-smoke/run/cfs.img
	@echo "cli-smoke: every command ran on FSD and CFS, deterministic"

# Telemetry smoke: two identical open-loop server runs must write valid,
# non-trivial (>= 20 samples), byte-identical timeline JSON.
timeline-smoke:
	dune build bin/cedar.exe
	rm -rf _build/timeline-smoke && mkdir -p _build/timeline-smoke
	./_build/default/bin/cedar.exe mkfs _build/timeline-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe serve _build/timeline-smoke/vol.img \
		--clients 4 --open-loop 20 --ops 60 \
		--timeline _build/timeline-smoke/run1.json > /dev/null
	./_build/default/bin/cedar.exe serve _build/timeline-smoke/vol.img \
		--clients 4 --open-loop 20 --ops 60 \
		--timeline _build/timeline-smoke/run2.json > /dev/null
	cmp _build/timeline-smoke/run1.json _build/timeline-smoke/run2.json
	@n=$$(grep -c '"at_us"' _build/timeline-smoke/run1.json); \
	if [ "$$n" -lt 20 ]; then \
		echo "timeline-smoke: only $$n samples (want >= 20)"; exit 1; fi; \
	echo "timeline-smoke: $$n samples, valid, deterministic"

# Watch smoke: --watch on a pipe must emit frames as plain text — not a
# single ANSI escape byte — and stay deterministic run to run.
watch-smoke:
	dune build bin/cedar.exe
	rm -rf _build/watch-smoke && mkdir -p _build/watch-smoke
	./_build/default/bin/cedar.exe mkfs _build/watch-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe serve _build/watch-smoke/vol.img \
		--clients 2 --watch > _build/watch-smoke/run1.txt
	./_build/default/bin/cedar.exe serve _build/watch-smoke/vol.img \
		--clients 2 --watch > _build/watch-smoke/run2.txt
	cmp _build/watch-smoke/run1.txt _build/watch-smoke/run2.txt
	@if LC_ALL=C grep -q "$$(printf '\033')" _build/watch-smoke/run1.txt; then \
		echo "watch-smoke: ANSI escape codes in non-tty output"; exit 1; fi
	@grep -q "sat.device_busy" _build/watch-smoke/run1.txt
	@echo "watch-smoke: plain-text frames, deterministic"

# Latency-anatomy smoke: cedar why exits non-zero if any op's phase
# vector fails the conservation invariant, so the runs themselves are
# the correctness check; the two JSON anatomies must also be
# byte-identical (same seed, same blame, same microseconds). Then a
# misspelt kind: --op creat must exit 1 with a message listing the
# seven op kinds, not print an empty anatomy. serve and why build their
# workload from the same flags in one place, so on the same image
# `--clients 4 --open-loop 20 --ops 60` must give serve's total_ops equal
# to why's op count. Last, --churn --ops 0 must exit 1, not print an
# empty anatomy.
why-smoke:
	dune build bin/cedar.exe
	rm -rf _build/why-smoke && mkdir -p _build/why-smoke
	./_build/default/bin/cedar.exe mkfs _build/why-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe why _build/why-smoke/vol.img \
		--clients 4 --json > _build/why-smoke/run1.json
	./_build/default/bin/cedar.exe why _build/why-smoke/vol.img \
		--clients 4 --json > _build/why-smoke/run2.json
	cmp _build/why-smoke/run1.json _build/why-smoke/run2.json
	@grep -q '"all_conserved": true' _build/why-smoke/run1.json
	@echo "why-smoke: conserved, deterministic"
	@./_build/default/bin/cedar.exe why _build/why-smoke/vol.img --op creat \
		> /dev/null 2> _build/why-smoke/badop.err; status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "why-smoke: cedar why --op creat exited $$status, not 1"; exit 1; fi
	@grep -q "create, open, read, read_page, delete, list, force" \
		_build/why-smoke/badop.err || \
		{ echo "why-smoke: --op creat refused without listing the kinds"; exit 1; }
	@echo "why-smoke: unknown --op kind refused"
	./_build/default/bin/cedar.exe serve _build/why-smoke/vol.img \
		--clients 4 --open-loop 20 --ops 60 --json > _build/why-smoke/serve-ol.json
	./_build/default/bin/cedar.exe why _build/why-smoke/vol.img \
		--clients 4 --open-loop 20 --ops 60 --json > _build/why-smoke/why-ol.json
	@python3 -c 'import json, sys; s = json.load(open(sys.argv[1])); w = json.load(open(sys.argv[2])); sys.exit(not (s["total_ops"] == w["ops"] == 60))' \
		_build/why-smoke/serve-ol.json _build/why-smoke/why-ol.json || \
		{ echo "why-smoke: serve and why ran different open-loop workloads"; exit 1; }
	@echo "why-smoke: serve and why ran the same 60 open-loop ops"
	@./_build/default/bin/cedar.exe why _build/why-smoke/vol.img --churn --ops 0 \
		> /dev/null 2>&1; status=$$?; \
	if [ $$status -ne 1 ]; then \
		echo "why-smoke: cedar why --churn --ops 0 exited $$status, not 1"; exit 1; fi
	@echo "why-smoke: --churn --ops 0 refused"

# Disk-scheduler smoke: the qdepth sweep must rerun byte-identically and
# both of its snapshot's checks must hold — a reordering policy beats
# FIFO at depth >= 4 (shape_ok), and depth-1 rows degenerate to the
# queue-off baseline (depth1_ok). The harness exits 1 when either fails;
# the greps pin that both are recorded.
qdepth-smoke:
	rm -rf _build/qdepth-smoke && mkdir -p _build/qdepth-smoke
	dune exec bench/main.exe -- qdepth \
		--out _build/qdepth-smoke/run1.json > _build/qdepth-smoke/log1.txt
	dune exec bench/main.exe -- qdepth \
		--out _build/qdepth-smoke/run2.json > /dev/null
	cmp _build/qdepth-smoke/run1.json _build/qdepth-smoke/run2.json
	@grep -q '"shape_ok": true' _build/qdepth-smoke/run1.json
	@grep -q '"depth1_ok": true' _build/qdepth-smoke/run1.json
	@echo "qdepth-smoke: reordering wins at depth >= 4, depth-1 degenerate, deterministic"

# Trace-fold smoke: cedar stats runs the scripted workload on a fresh
# small image (which it does not save) and prints the one fold of its
# trace. Two runs must print byte-identical JSON, and the report must
# carry the per-op latency distributions and the ops-per-force series.
stats-smoke:
	dune build bin/cedar.exe
	rm -rf _build/stats-smoke && mkdir -p _build/stats-smoke
	./_build/default/bin/cedar.exe mkfs _build/stats-smoke/vol.img \
		--geometry small > /dev/null
	./_build/default/bin/cedar.exe stats _build/stats-smoke/vol.img \
		--json > _build/stats-smoke/run1.json
	./_build/default/bin/cedar.exe stats _build/stats-smoke/vol.img \
		--json > _build/stats-smoke/run2.json
	cmp _build/stats-smoke/run1.json _build/stats-smoke/run2.json
	@grep -q '"latency_us"' _build/stats-smoke/run1.json
	@grep -q '"ops_per_force"' _build/stats-smoke/run1.json
	@echo "stats-smoke: per-op latency and ops per force, deterministic"

# Benchmark correctness smoke: a one-second run of each perfbench
# workload, untraced and traced (--trace 1 also runs the per-layer host
# ledger, perfbench/ledger.ml). Every run checks the oracle fold,
# Fsd.check, byte identity of traced and untraced reps and
# critical-path conservation, and its last line is the JSON result,
# which must read "correct": true. A traced run must also see a real
# append phase (phase.append_p99_ms > 0): parked creates share their
# covering force's log write on both workloads. And its B-tree find must
# allocate under 100 words (fnt.btree.find.words, an allocation count
# that does not vary run to run): finds are served from the tree's
# decoded-node memo, not by decoding a page per node. Its B-tree insert
# must allocate under 400 words (fnt.btree.insert.words, exact too):
# a node is encoded in one pass into one zeroed page (357 words; 657
# with a growable buffer copied into the page). And the whole untraced
# rep must allocate under a per-workload bound of minor words per op
# (obs.minor_words_per_op, also exact run to run): 1090 on makedo-8vol
# and 2090 on openloop-1vol, about 8 % above what the name-table path
# with one version scan per create, CRC reuse and a reused create image
# measures (1005.2 and 1935.0) and under the path before it (1220.0 and
# 2698.1). Its per-sector CRC-32 must take under 150 ns
# (crc32.sector.host_ns): the carry-less-multiply kernel measures 24-45
# ns and the portable OCaml loop 459-633 ns on a 2-vCPU x86-64 host, so
# a build that silently falls back to the OCaml loop fails here. An
# untraced run's peak heap (peak_heap_mb, exact run to run
# and the same at any --seconds) must stay under 42 MB on makedo-8vol
# and 56 MB on openloop-1vol. It measures 36.01 and 54.79 (openloop
# peaks after the serve, while crashed-device copies boot, so the GC's
# pacing of the allocation stream moves it: 52.24 with per-sector CRC
# arrays on each log unit and frame, which allocate more; 60.25 when boot reads into
# reused buffers but distributions keep their samples as lists of boxed
# floats, 54.82 with both as before; 38.28 and 50.58 before the
# name-table path above; 40.95 and 57.30 with an extra file-sized read
# buffer, 45.94 and 112.98 with the per-sector store before the chunked
# device image).
perf-smoke:
	rm -rf _build/perf-smoke && mkdir -p _build/perf-smoke
	@for w in makedo-8vol openloop-1vol; do for tr in 0 1; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace $$tr \
			> _build/perf-smoke/$$w-trace$$tr.out || exit 1; \
		tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | grep -q '"correct": true' || \
			{ echo "perf-smoke: $$w --trace $$tr not correct"; exit 1; }; \
		if [ $$tr = 0 ]; then \
			case $$w in makedo-8vol) heap=42;; *) heap=56;; esac; \
			tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | python3 -c \
				'import json, sys; m = json.load(sys.stdin)["metrics"]; sys.exit(m["peak_heap_mb"]["value"] >= float(sys.argv[1]))' $$heap || \
				{ echo "perf-smoke: $$w --trace 0 peak_heap_mb is not < $$heap"; exit 1; }; \
		fi; \
		if [ $$tr = 1 ]; then \
			tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | python3 -c \
				'import json, sys; m = json.load(sys.stdin)["metrics"]; sys.exit(m["phase.append_p99_ms"]["value"] <= 0)' || \
				{ echo "perf-smoke: $$w --trace 1 phase.append_p99_ms is not > 0"; exit 1; }; \
			tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | python3 -c \
				'import json, sys; m = json.load(sys.stdin)["metrics"]; sys.exit(m["fnt.btree.find.words"]["value"] >= 100)' || \
				{ echo "perf-smoke: $$w --trace 1 fnt.btree.find.words is not < 100"; exit 1; }; \
			tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | python3 -c \
				'import json, sys; m = json.load(sys.stdin)["metrics"]; sys.exit(m["fnt.btree.insert.words"]["value"] >= 400)' || \
				{ echo "perf-smoke: $$w --trace 1 fnt.btree.insert.words is not < 400"; exit 1; }; \
			tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | python3 -c \
				'import json, sys; m = json.load(sys.stdin)["metrics"]; sys.exit(m["crc32.sector.host_ns"]["value"] >= 150)' || \
				{ echo "perf-smoke: $$w --trace 1 crc32.sector.host_ns is not < 150"; exit 1; }; \
			case $$w in makedo-8vol) bound=1090;; *) bound=2090;; esac; \
			tail -n 1 _build/perf-smoke/$$w-trace$$tr.out | python3 -c \
				'import json, sys; m = json.load(sys.stdin)["metrics"]; sys.exit(m["obs.minor_words_per_op"]["value"] >= float(sys.argv[1]))' $$bound || \
				{ echo "perf-smoke: $$w --trace 1 obs.minor_words_per_op is not < $$bound"; exit 1; }; \
		fi; \
		echo "perf-smoke: $$w --trace $$tr correct"; \
	done; done

# Requires ocamlformat (not vendored in the container); no-op without it.
fmt:
	-dune fmt

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt; \
	else \
		echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

# Source size, as ROADMAP.md's State section reports it: the .ml + .mli
# lines, and the .c lines, of lib/ + bin/, bench/, test/ and perfbench/.
# Every change measures what it adds or deletes the same way. Not a gate.
loc:
	@for g in "lib bin" bench test perfbench; do \
		ml=$$(find $$g \( -name '*.ml' -o -name '*.mli' \) -exec cat {} + | wc -l); \
		c=$$(find $$g -name '*.c' -exec cat {} + | wc -l); \
		printf '%-10s %6d .ml + .mli %6d .c\n' "$$g" $$ml $$c; \
	done

ci: fmt-check check api-check examples-smoke paper-smoke serve-smoke volumes-smoke faultsweep-smoke wrap-smoke \
	recovery-smoke scavenge-smoke cli-smoke timeline-smoke watch-smoke why-smoke qdepth-smoke stats-smoke \
	perf-smoke bench-diff

clean:
	dune clean
