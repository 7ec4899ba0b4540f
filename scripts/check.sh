#!/usr/bin/env bash
# Lint + format + rustdoc + fault-matrix gate, the same commands CI runs
# (.github/workflows/ci.yml).
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Bench records must parse as JSON: reports whole, history files line by
# line (a record that breaks on a quote in a path silently disarms the
# history gate).
check_json() {
  python3 - "$@" <<'PY'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        if path.endswith(".jsonl"):
            for line in f:
                json.loads(line)
        else:
            json.load(f)
PY
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (allocation lints promoted)"
cargo clippy --workspace --all-targets -- -D warnings \
  -W clippy::redundant_clone -W clippy::inefficient_to_string

# Doc comments must resolve: a stale intra-doc link (to a renamed or
# private item) fails here instead of rotting silently.
echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The CI fault matrix, condensed: degraded runs must complete cleanly
# at every point of (--faults × --threads).
echo "==> fault matrix (--faults none|heavy x --threads 1|4)"
for faults in none heavy; do
  for threads in 1 4; do
    echo "    exp table1 --faults $faults --threads $threads"
    cargo run --release -q -p iotmap-bench --bin exp -- \
      table1 --preset small --seed 42 \
      --faults "$faults" --threads "$threads" >/dev/null
  done
done

# The §5 figures must not depend on the thread count under faults: the
# border router drops faulted flows in place, and fig11 orders ports
# whose shares tie by map iteration order.
echo "==> §5 thread invariance under faults (exp fig11|fig12a --threads 1 vs 4)"
tmp_figs="$(mktemp -d)"
for fig in fig11 fig12a; do
  for threads in 1 4; do
    cargo run --release -q -p iotmap-bench --bin exp -- \
      "$fig" --preset small --seed 42 --faults heavy --threads "$threads" \
      >"$tmp_figs/$fig.$threads"
  done
  diff -u "$tmp_figs/$fig.1" "$tmp_figs/$fig.4" \
    || { echo "exp $fig differs between --threads 1 and 4 under --faults heavy"; exit 1; }
done
rm -rf "$tmp_figs"

# The CI crash-recovery gate, condensed: kill the run after every stage
# boundary, resume from checkpoints, and demand byte-identical artifacts
# (plus a chaos pass with contained stage/shard panics). The full
# in-process matrix is tests/recovery.rs and crates/bench/tests/exit_codes.rs.
echo "==> crash recovery (exp crash-recovery --preset small)"
cargo run --release -q -p iotmap-bench --bin exp -- \
  crash-recovery --preset small --seed 42 >/dev/null

# The CI bench-smoke gate, condensed: --gate exercises the perf-history
# regression path (prepare, engine and per-stage times) against a
# scratch history file. Run twice against one cache directory — the
# first run is cold and populates it, the second exercises the warm
# memoized-prepare path (both append history; the cache tag separates
# them).
echo "==> bench smoke (exp bench --preset small, cold + warm cache)"
tmp_bench="$(mktemp -d)"
cargo run --release -q -p iotmap-bench --bin exp -- \
  bench --preset small --seed 42 --threads 1 --cache "$tmp_bench/cache" \
  --out "$tmp_bench" --gate >/dev/null
cargo run --release -q -p iotmap-bench --bin exp -- \
  bench --preset small --seed 42 --threads 1 --cache "$tmp_bench/cache" \
  --out "$tmp_bench" --gate >/dev/null
check_json "$tmp_bench/BENCH_pipeline.json" "$tmp_bench/BENCH_history.jsonl"
# The shared-IP stage reports its own time, not folded into footprints.
python3 - "$tmp_bench/BENCH_pipeline.json" <<'PY' \
  || { echo "prepare_stages_ms.shared-ip missing from BENCH_pipeline.json"; exit 1; }
import json, sys
assert "shared-ip" in json.load(open(sys.argv[1]))["prepare_stages_ms"]
PY

# The CI scale-smoke gate, condensed: the --scale phase must stream the
# replicated ISP pass line by line — the binary itself enforces the
# documented peak-RSS ceiling and the history gate; the greps re-assert
# that a real (non-zero) RSS reading, the replicated ISP lines and the
# ISP pass's contact / exclusion / analysis split landed in the report.
echo "==> scale smoke (exp bench --preset small --scale 4 --gate)"
cargo run --release -q -p iotmap-bench --bin exp -- \
  bench --preset small --seed 42 --threads 1 --scale 4 \
  --out "$tmp_bench" --history "$tmp_bench/scale_history.jsonl" --gate >/dev/null
grep -q '"peak_rss_bytes": [1-9]' "$tmp_bench/BENCH_pipeline.json" \
  || { echo "peak_rss_bytes missing from BENCH_pipeline.json"; exit 1; }
grep -q '"isp_replicas": 4,' "$tmp_bench/BENCH_pipeline.json" \
  && grep -q '"isp_lines": [1-9]' "$tmp_bench/BENCH_pipeline.json" \
  && grep -q '"isp_contact_ms": [0-9]' "$tmp_bench/BENCH_pipeline.json" \
  && grep -q '"isp_exclusion_ms": [0-9]' "$tmp_bench/BENCH_pipeline.json" \
  && grep -q '"isp_analysis_ms": [0-9]' "$tmp_bench/BENCH_pipeline.json" \
  || { echo "scaled.isp_* missing from BENCH_pipeline.json"; exit 1; }
check_json "$tmp_bench/BENCH_pipeline.json" "$tmp_bench/scale_history.jsonl"

# The profiler's smoke path: the full prepare pipeline instrumented, the
# trace exported as Chrome Trace Event JSON, and the report printed —
# the trace path runs on every check, not just when someone profiles.
echo "==> profile smoke (exp profile --smoke --trace-out)"
cargo run --release -q -p iotmap-bench --bin exp -- \
  profile --smoke --preset small --seed 42 --threads 4 \
  --trace-out "$tmp_bench/trace.json" >/dev/null
test -s "$tmp_bench/trace.json" || { echo "trace.json missing or empty"; exit 1; }

# The CI longitudinal-smoke gate, condensed: roll a prepared world three
# days forward; every day is verified byte-identical against a full
# from-scratch run before its timings count. No --gate — the 25% cost
# floor is calibrated for realistic worlds, and fixed per-day overheads
# dominate on the small preset. The full day/thread/fault matrix is
# tests/incremental_equivalence.rs.
echo "==> longitudinal smoke (exp longitudinal --preset small --days 3)"
cargo run --release -q -p iotmap-bench --bin exp -- \
  longitudinal --preset small --seed 42 --threads 1 --days 3 \
  --out "$tmp_bench" >/dev/null
test -s "$tmp_bench/BENCH_longitudinal.json" || { echo "BENCH_longitudinal.json missing or empty"; exit 1; }
check_json "$tmp_bench/BENCH_longitudinal.json" "$tmp_bench/BENCH_history.jsonl"

# The CI scenario-smoke gate, condensed: a declarative chaos scenario
# must run deterministically (exp scenario re-executes and compares
# canonical dumps) with the per-event resilience deltas written to
# BENCH_scenarios.json. The byte-identity and graceful-degradation pins
# are tests/scenario_engine.rs.
echo "==> scenario smoke (exp scenario --file scenarios/cert_storm.scn)"
cargo run --release -q -p iotmap-bench --bin exp -- \
  scenario --preset small --seed 42 --threads 1 \
  --file scenarios/cert_storm.scn --out "$tmp_bench" >/dev/null
test -s "$tmp_bench/BENCH_scenarios.json" || { echo "BENCH_scenarios.json missing or empty"; exit 1; }
check_json "$tmp_bench/BENCH_scenarios.json"
rm -rf "$tmp_bench"

echo "OK"
