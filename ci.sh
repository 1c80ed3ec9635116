#!/usr/bin/env bash
# CI for the cats workspace. Run from the repository root.
#
# Mirrors the tier-1 verify command (ROADMAP.md) and adds the
# documentation and hygiene gates:
#
#   1. cargo build --release        — the whole workspace, optimised
#   2. cargo build --examples       — every paper-reproduction example
#   3. cargo bench --no-run         — the 9 harness=false bench targets
#                                     (cargo build/test skip these)
#   4. cargo test  -q               — all unit + integration + doc tests
#   4b. consistency_differential    — run by step 4 and repeated here by
#                                     name: the polynomial single-outcome
#                                     backend must agree with the streamed
#                                     enumeration engine on every probe
#                                     (corpus-wide + randomised), with
#                                     fallbacks counted and zero silent
#                                     disagreements
#   4c. robustness (fault-injection)— the deterministic fault-injection
#                                     suite: herd-core's faultpoint
#                                     harness armed (cfg-gated, a no-op in
#                                     every other step), single-threaded
#                                     because the harness is
#                                     process-global. Injected panics,
#                                     delays, and spurious cancels must
#                                     each degrade to partial results with
#                                     exact candidate accounting
#   5. alloc_smoke (alloc-count)    — the zero-allocation contract of the
#                                     arena-backed relation engine: a
#                                     counting global allocator asserts 0
#                                     steady-state heap allocations per
#                                     candidate on iriw+2w
#   5b. textbench (3 workloads,     — two seconds each of the text-in
#       hw-logs also traced and
#       on seed 2, litmus-sweep
#       traced and cat-sweep on
#       seed 2)
#                                     benchmark's litmus-sweep (the
#                                     arena engine), cat-sweep (the eager
#                                     oracle under cat models) and hw-logs
#                                     (multi-model verdicts, decide and
#                                     the cache) on seed 1: every verdict
#                                     is checked against its reference, so
#                                     a fast-path verdict bug fails CI; plus
#                                     a traced hw-logs run, whose shadow
#                                     cache recomputes every row's verdict
#                                     key through the public
#                                     query_fingerprint/outcome_fingerprint
#                                     and fails on any drift from
#                                     judge_log_cached's keys; plus an
#                                     untraced hw-logs run on seed 2, a
#                                     second input for the cost-modelled
#                                     stream-or-decide miss path; plus a
#                                     traced litmus-sweep and an untraced
#                                     cat-sweep run on seed 2, inputs the
#                                     parser, the concretiser and the
#                                     litmus.sem/core.stream probes were
#                                     not tuned on; the step fails unless
#                                     each run's last line reports
#                                     "correct": true
#   6. perf_pipeline --quick --gate — the tracked perf bench (the eager
#                                     oracle vs the pruning arena engine,
#                                     thin-air pruning against the engine
#                                     without a static base, width-generic
#                                     rows, the work-stealing scheduler vs
#                                     a one-unit-per-worker static split,
#                                     compiled cat models, work-stealing
#                                     corpus split); writes
#                                     BENCH_pr<N>.json so every PR leaves
#                                     its own perf-trajectory data point
#                                     (prior PRs' files are kept), and
#                                     FAILS if a heavily-pruning IRIW/2+2W
#                                     row's arena engine drops below 5x
#                                     over the eager oracle, a heavily-
#                                     cyclic lb+datas row below 2x, or a
#                                     backend query row (SC/TSO on
#                                     iriw+3w / wrc+6w) below 10x over
#                                     the enumeration scan, or a robust
#                                     row (never-firing budget threaded
#                                     through the arena engine) at ≥5%
#                                     overhead, or a batch row (memoised
#                                     query layer, PR 9) below 10x for
#                                     decide_log over row-at-a-time
#                                     judging on a 100k-row log / below
#                                     100x for a warm verdict-cache
#                                     lookup over the cold decide, or a
#                                     frontier row (conditional
#                                     saturation, PR 10) above a 20%
#                                     Power/ARM corpus fallback rate /
#                                     below an 80% definitive fraction /
#                                     below 5x for the envelope path
#                                     over the pure-enumeration-fallback
#                                     baseline on the iriw+3w+syncs and
#                                     wrc+6w+po probes
#   7. perf_pipeline --compare      — reads every BENCH_pr*.json, prints
#                                     the per-family speedup trajectory
#                                     table, and FAILS if the new PR's
#                                     effective pruned row regresses past
#                                     tolerance vs the previous PR's file
#   8. cargo doc   --no-deps        — rustdoc, warnings denied
#   9. cargo fmt   --check          — formatting (rustfmt.toml at root)
#  10. cargo clippy --all-targets   — lints on every target of the
#                                     workspace, warnings denied
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

# The PR number this run benches for: $PR_NUMBER wins; otherwise one past
# the newest "PR <N>:" subject in git history (each session lands exactly
# one such commit, so the in-flight PR is last + 1).
PR="${PR_NUMBER:-}"
if [[ -z "$PR" ]]; then
    # `|| true` rescues the SIGPIPE exit that pipefail would otherwise
    # surface once `head -1` closes the pipe on a long history.
    last=$(git log --pretty=%s 2>/dev/null | sed -n 's/^PR \([0-9][0-9]*\).*/\1/p' | head -1 || true)
    PR=$(( ${last:-0} + 1 ))
fi

run cargo build --release --workspace
run cargo build --examples
run cargo bench --no-run --workspace
run cargo test -q --workspace
run cargo test -q --test consistency_differential
run cargo test -q --test robustness --features fault-injection -- --test-threads=1
run cargo test -p herd-bench --release --features alloc-count --test alloc_smoke
for textbench_run in "litmus-sweep 1 0" "cat-sweep 1 0" "hw-logs 1 0" "hw-logs 1 1" "hw-logs 2 0" \
    "litmus-sweep 2 1" "cat-sweep 2 0"; do
    read -r workload seed trace <<< "$textbench_run"
    echo "==> textbench --workload $workload --seed $seed --seconds 2 --trace $trace"
    textbench_last=$(cargo run --release --offline --quiet --manifest-path textbench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 2 --trace "$trace" | tail -n 1)
    echo "$textbench_last"
    if [[ "$textbench_last" != *'"correct": true'* ]]; then
        echo "textbench $workload (seed $seed, trace $trace): verdicts or exact counts are not correct" >&2
        exit 1
    fi
done
run cargo bench -p herd-bench --bench perf_pipeline -- \
    --quick --gate --pr "$PR" --json "$PWD/BENCH_pr${PR}.json"
run cargo bench -p herd-bench --bench perf_pipeline -- --compare --gate
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
