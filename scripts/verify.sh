#!/usr/bin/env bash
# Tier-1 verification gate. Fully offline: the workspace has zero external
# dependencies, so no network (and no crates.io) is ever needed.
#
#   scripts/verify.sh              # run every stage, in order
#   scripts/verify.sh golden shards  # run only the named stages
#
# Stages, in default order:
#   build        release build of the whole workspace
#   clippy       cargo clippy --workspace --all-targets with warnings denied
#   test         the full test suite (unit + property + integration + doc)
#   fmt          rustfmt conformance
#   determinism  two runs of `expt --seed 42` byte-identical, and identical
#                across MKNN_THREADS=1 vs 4
#   golden       `expt --seed 42` byte-identical to the committed golden
#                file (scripts/golden/smoke_seed42.json) — proves
#                FaultPlan::none() is inert and guards every metric field
#   shards       `expt --seed 42 --shards 1` byte-identical to the golden
#                file (G=1 is the single server), and G=4 byte-identical
#                across runs, thread counts, and under the chaos preset
#   chaos        `expt --seed 42 --fault chaos` byte-identical across two
#                runs AND across MKNN_THREADS=1 vs 4 — fault injection is
#                as deterministic as the perfect link
#   recovery     `expt --seed 42 --shards 4 --fault crash` byte-identical
#                across two runs and MKNN_THREADS=1 vs 4, with crash
#                metrics actually present, plus the bounded-reconvergence
#                property suite (tests/shard_recovery.rs)
#   bench        the committed BENCH_shards.json parses as a BenchSummary
#                and round-trips through the mknn_util JSON codec
#   tickbench    the committed BENCH_tick.json parses; a sized smoke run
#                (above the PAR_MIN_DEVICES threshold) is byte-identical
#                across MKNN_THREADS/--threads 1 vs 8; fast-scale E18
#                re-asserts cross-width identity in-process and prints
#                its T=1 vs T=8 scaling table (informational)
#   wire         bit-level wire format: every message and frame item
#                round-trips (property suite), and the smoke run is
#                byte-identical to the golden across MKNN_THREADS=1 vs 8
#   benchmark    the benchmark/ crate (a workspace of its own, compiled
#                against this workspace's public API) builds, passes its
#                tests, and completes a --quick run of every workload
#   speedup      (informational) fast-mode suite on one worker vs all cores
#
# Every byte gate routes through `diff` on temp files; a failing
# `cargo run -q` inside a capture aborts the script with a non-zero exit
# instead of silently diffing empty output.
set -euo pipefail
cd "$(dirname "$0")/.."

TMPDIR_VERIFY="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_VERIFY"' EXIT

EXPT=(cargo run -q --release --offline -p mknn-bench --bin expt --)

# run_expt <outfile> [ENV=VAL ...] -- <expt args...>
# Runs the expt binary with the given environment overrides and arguments,
# capturing stdout into "$TMPDIR_VERIFY/<outfile>". Any non-zero exit from
# the binary fails the whole script (set -e does not see failures inside
# command substitutions used as arguments, so captures go through files).
run_expt() {
    local out="$TMPDIR_VERIFY/$1"; shift
    local envs=()
    while [ "$1" != "--" ]; do envs+=("$1"); shift; done
    shift
    if ! env "${envs[@]}" "${EXPT[@]}" "$@" > "$out"; then
        echo "FAIL: expt $* exited non-zero" >&2
        exit 1
    fi
}

# expect_same <file_a> <file_b> <message>
expect_same() {
    if ! diff -u "$TMPDIR_VERIFY/$1" "$TMPDIR_VERIFY/$2" >&2; then
        echo "FAIL: $3" >&2
        exit 1
    fi
}

stage_build() {
    echo "==> cargo build --release --offline --workspace"
    cargo build --release --offline --workspace
}

stage_clippy() {
    echo "==> cargo clippy --workspace --all-targets --offline -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
}

stage_test() {
    echo "==> cargo test -q --offline --workspace"
    cargo test -q --offline --workspace
}

stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all --check
}

stage_determinism() {
    echo "==> determinism gate (expt --seed 42, twice)"
    run_expt det_a -- --seed 42
    run_expt det_b -- --seed 42
    expect_same det_a det_b "expt --seed 42 output differs between runs"

    echo "==> thread-determinism gate (expt --seed 42, MKNN_THREADS=1 vs 4)"
    run_expt det_t1 MKNN_THREADS=1 -- --seed 42
    run_expt det_t4 MKNN_THREADS=4 -- --seed 42
    expect_same det_t1 det_t4 "expt --seed 42 output differs across thread counts"
}

stage_golden() {
    echo "==> golden gate (expt --seed 42 vs scripts/golden/smoke_seed42.json)"
    run_expt golden -- --seed 42
    if ! diff -u scripts/golden/smoke_seed42.json "$TMPDIR_VERIFY/golden"; then
        echo "FAIL: expt --seed 42 output differs from the committed golden file" >&2
        echo "      (if the metrics schema changed on purpose, regenerate it:" >&2
        echo "       cargo run -q --release --offline -p mknn-bench --bin expt -- --seed 42 > scripts/golden/smoke_seed42.json)" >&2
        exit 1
    fi
}

stage_shards() {
    echo "==> shard gate (expt --seed 42 --shards 1 vs the golden file)"
    run_expt sh_g1 -- --seed 42 --shards 1
    if ! diff -u scripts/golden/smoke_seed42.json "$TMPDIR_VERIFY/sh_g1"; then
        echo "FAIL: --shards 1 is not byte-identical to the single-server golden" >&2
        exit 1
    fi

    echo "==> shard gate (G=4: two runs + thread counts + chaos)"
    run_expt sh_a -- --seed 42 --shards 4
    run_expt sh_b -- --seed 42 --shards 4
    expect_same sh_a sh_b "expt --seed 42 --shards 4 differs between runs"
    run_expt sh_t1 MKNN_THREADS=1 -- --seed 42 --shards 4
    run_expt sh_t4 MKNN_THREADS=4 -- --seed 42 --shards 4
    expect_same sh_t1 sh_t4 "expt --seed 42 --shards 4 differs across thread counts"
    run_expt sh_c1 -- --seed 42 --shards 4 --fault chaos
    run_expt sh_c2 -- --seed 42 --shards 4 --fault chaos
    expect_same sh_c1 sh_c2 "expt --seed 42 --shards 4 --fault chaos differs between runs"

    echo "==> shard gate (parallel server phase: G=4 chaos, 1 vs 8 pool workers)"
    run_expt sh_ct1 MKNN_THREADS=1 -- --seed 42 --shards 4 --fault chaos
    run_expt sh_ct8 MKNN_THREADS=8 -- --seed 42 --shards 4 --fault chaos
    expect_same sh_ct1 sh_ct8 \
        "parallel server phase is not byte-identical across pool widths (G=4 chaos)"
    if diff -q "$TMPDIR_VERIFY/sh_g1" "$TMPDIR_VERIFY/sh_a" > /dev/null; then
        echo "FAIL: G=4 produced no shard counters (overlay is inert)" >&2
        exit 1
    fi
}

stage_chaos() {
    echo "==> chaos gate (expt --seed 42 --fault chaos: two runs + thread counts)"
    run_expt chaos_a -- --seed 42 --fault chaos
    run_expt chaos_b -- --seed 42 --fault chaos
    expect_same chaos_a chaos_b "expt --seed 42 --fault chaos differs between runs"
    run_expt chaos_t1 MKNN_THREADS=1 -- --seed 42 --fault chaos
    run_expt chaos_t4 MKNN_THREADS=4 -- --seed 42 --fault chaos
    expect_same chaos_t1 chaos_t4 "expt --seed 42 --fault chaos differs across thread counts"
    run_expt chaos_ref -- --seed 42
    if diff -q "$TMPDIR_VERIFY/chaos_ref" "$TMPDIR_VERIFY/chaos_a" > /dev/null; then
        echo "FAIL: the chaos fault plan had no effect on the smoke run" >&2
        exit 1
    fi
}

stage_recovery() {
    echo "==> recovery gate (expt --seed 42 --shards 4 --fault crash: two runs + thread counts)"
    run_expt rec_a -- --seed 42 --shards 4 --fault crash
    run_expt rec_b -- --seed 42 --shards 4 --fault crash
    expect_same rec_a rec_b "expt --seed 42 --shards 4 --fault crash differs between runs"
    run_expt rec_t1 MKNN_THREADS=1 -- --seed 42 --shards 4 --fault crash
    run_expt rec_t4 MKNN_THREADS=4 -- --seed 42 --shards 4 --fault crash
    expect_same rec_t1 rec_t4 "expt --seed 42 --shards 4 --fault crash differs across thread counts"

    # The crash plan must actually schedule windows on the smoke world
    # (crash counters are omit-when-zero, so their presence proves it),
    # and a crash-free G=4 run must not carry any of them.
    if ! grep -q '"shard_crashes"' "$TMPDIR_VERIFY/rec_a"; then
        echo "FAIL: the crash preset scheduled no shard crashes on the smoke run" >&2
        exit 1
    fi
    run_expt rec_ref -- --seed 42 --shards 4
    if grep -Eq '"(shard_crashes|crash_down_ticks|recover_msgs|recover_bytes)"' \
            "$TMPDIR_VERIFY/rec_ref"; then
        echo "FAIL: a crash-free run leaked crash/recovery counters" >&2
        exit 1
    fi

    echo "==> reconvergence-bound gate (tests/shard_recovery.rs)"
    cargo test -q --release --offline --test shard_recovery
}

stage_bench() {
    echo "==> bench gate (BENCH_shards.json parses and round-trips)"
    if [ ! -f BENCH_shards.json ]; then
        echo "FAIL: BENCH_shards.json is missing (regenerate:" >&2
        echo "      cargo run --release --offline -p mknn-bench --bin expt --" \
             "--exp e17 --full --bench-out BENCH_shards.json)" >&2
        exit 1
    fi
    "${EXPT[@]}" --check-bench BENCH_shards.json
}

stage_tickbench() {
    echo "==> tick-bench gate (BENCH_tick.json parses and round-trips)"
    if [ ! -f BENCH_tick.json ]; then
        echo "FAIL: BENCH_tick.json is missing (regenerate:" >&2
        echo "      cargo run --release --offline -p mknn-bench --bin expt --" \
             "--exp e18 --full --bench-out BENCH_tick.json)" >&2
        exit 1
    fi
    "${EXPT[@]}" --check-bench BENCH_tick.json

    # The chunked client phase only engages above PAR_MIN_DEVICES (4096),
    # so the standard smoke (N=400) never exercises it; this sized smoke
    # does, across both the env knob and the pinned-pool knob.
    echo "==> intra-episode determinism gate (N=6000, MKNN_THREADS=1 vs 8)"
    local sized=(--seed 42 --n 6000 --queries 10 --ticks 20)
    run_expt tb_e1 MKNN_THREADS=1 -- "${sized[@]}"
    run_expt tb_e8 MKNN_THREADS=8 -- "${sized[@]}"
    expect_same tb_e1 tb_e8 "sized smoke differs across MKNN_THREADS 1 vs 8"
    run_expt tb_p1 -- "${sized[@]}" --threads 1
    run_expt tb_p8 -- "${sized[@]}" --threads 8
    # The config echo records the pinned width; the episodes may not differ.
    grep -v '"client_threads"' "$TMPDIR_VERIFY/tb_p1" > "$TMPDIR_VERIFY/tb_p1n"
    grep -v '"client_threads"' "$TMPDIR_VERIFY/tb_p8" > "$TMPDIR_VERIFY/tb_p8n"
    expect_same tb_p1n tb_p8n "sized smoke differs across --threads 1 vs 8"

    # Fast-scale E18 re-runs its in-process cross-width identity assertion
    # (an `assert_eq!` on the episodes, so a divergence exits non-zero) and
    # prints the measured scaling table. The wall-clock column is reported,
    # not gated: whole-episode time has an Amdahl ceiling well under the
    # pool width (the world step and routing stay sequential by the
    # determinism contract, and E18 runs a single server shard), and at fast
    # scale the episodes last ~0.2 s, so T=8 vs T=1 on a small runner is
    # noise. Committed trajectories live in BENCH_tick.json.
    echo "==> tick-loop scaling (expt --exp e18, fast scale; $(nproc) cores, informational)"
    "${EXPT[@]}" --exp e18
}

stage_wire() {
    echo "==> wire round-trip gate (mknn-net encode/decode property suite)"
    cargo test -q --release --offline -p mknn-net

    echo "==> wire determinism gate (golden, MKNN_THREADS=1 vs 8)"
    run_expt wire_t1 MKNN_THREADS=1 -- --seed 42
    run_expt wire_t8 MKNN_THREADS=8 -- --seed 42
    expect_same wire_t1 wire_t8 "smoke run differs across MKNN_THREADS 1 vs 8"
    if ! diff -u scripts/golden/smoke_seed42.json "$TMPDIR_VERIFY/wire_t8" >&2; then
        echo "FAIL: threaded smoke run differs from the committed golden file" >&2
        exit 1
    fi
}

stage_benchmark() {
    echo "==> benchmark crate (build + test + benchmark/run.sh --quick)"
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    (cd benchmark && cargo test -q --offline)
    bash benchmark/run.sh --quick > "$TMPDIR_VERIFY/benchmark_quick"
}

stage_speedup() {
    # Informational: wall-clock of the fast-mode suite on one worker vs.
    # all cores. On a multi-core runner the parallel run should be
    # measurably faster; on a single-core box the two are expected to tie,
    # so this prints the measurement without failing the gate.
    echo "==> parallel speedup (expt --exp all, MKNN_THREADS=1 vs default)"
    local start seq_end par_end
    start=$(date +%s.%N)
    MKNN_THREADS=1 "${EXPT[@]}" --exp all > /dev/null
    seq_end=$(date +%s.%N)
    MKNN_THREADS= "${EXPT[@]}" --exp all > /dev/null
    par_end=$(date +%s.%N)
    awk -v s="$start" -v m="$seq_end" -v e="$par_end" -v cores="$(nproc)" \
        'BEGIN { seq = m - s; par = e - m;
                 printf "sequential: %.1fs  parallel (%s cores): %.1fs  speedup: %.2fx\n",
                        seq, cores, par, seq / par }'
}

ALL_STAGES=(build clippy test fmt determinism golden shards chaos recovery bench tickbench wire benchmark speedup)

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=("${ALL_STAGES[@]}")
fi
for s in "${stages[@]}"; do
    case " ${ALL_STAGES[*]} " in
        *" $s "*) "stage_$s" ;;
        *) echo "unknown stage: $s (valid: ${ALL_STAGES[*]})" >&2; exit 2 ;;
    esac
done

echo "verify: OK (${stages[*]})"
