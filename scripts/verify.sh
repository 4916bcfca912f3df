#!/usr/bin/env bash
# Tier-1 verification gate. Fully offline: the workspace has zero external
# dependencies, so no network (and no crates.io) is ever needed.
#
#   scripts/verify.sh              # run every stage, in order
#   scripts/verify.sh golden shards  # run only the named stages
#
# Stages, in default order:
#   build        release build of every workspace target; a warning fails it
#   clippy       cargo clippy --workspace --all-targets with warnings denied
#   test         the full test suite (unit + property + integration + doc)
#   fmt          rustfmt conformance, of the workspace and of benchmark/
#   doc          rustdoc with warnings denied (a dangling or private
#                intra-doc link fails it)
#   determinism, golden, shards, chaos, recovery, tickbench, wire
#                the byte gates: rows of the GATES table below, each "run
#                `expt --seed 42 <flags>` under A and under B, diff, and
#                optionally compare with a reference". Some stages add a
#                check of their own afterwards:
#     recovery   crash counters present under the crash preset and absent
#                without it; the bounded-reconvergence property suite
#                (tests/shard_recovery.rs)
#     tickbench  fast-scale E18 re-asserts cross-width identity in-process
#                and prints its T=1 vs T=8 scaling table (informational)
#     wire       every message and frame item round-trips (mknn-net
#                property suite)
#   examples     every examples/*.rs runs to a zero exit
#   benchmark    the benchmark/ crate (a workspace of its own, compiled
#                against this workspace's public API) builds, passes its
#                tests, and completes a --quick run of every workload whose
#                metrics_digests equal the BENCH_DIGESTS table, and prints
#                each timed run's peak_rss_mb (informational)
#   speedup      fast-mode suite (`expt --exp all`) on one worker vs all
#                cores: the timing is informational, but an experiment
#                that panics fails the stage
set -euo pipefail
cd "$(dirname "$0")/.."

TMPDIR_VERIFY="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_VERIFY"' EXIT

EXPT=(cargo run -q --release --offline --locked -p mknn-bench --bin expt --)
GOLDEN=scripts/golden/smoke_seed42.json

# stage | row | expt flags (after --seed 42) | A | B | reference
#   A, B       `-` a plain run, `.` no run, `NAME=VAL` an environment
#              override, `--flag …` extra expt flags for that side
#   reference  `-` none, `golden` side A must equal the committed golden
#              file, `golden=<path>` side A must equal that committed file,
#              `!=<flags>` side A must differ from `expt --seed 42 <flags>`
#              (the variation under test had an effect)
# The sized rows run above PAR_MIN_DEVICES (4096), where the chunked client
# phase actually engages; the standard smoke (N=400) never reaches it.
GATES='determinism|two runs||-|-|-
determinism|MKNN_THREADS 1 vs 4||MKNN_THREADS=1|MKNN_THREADS=4|-
golden|the committed golden file||-|.|golden
golden|N=6000, the committed sized reference|--n 6000|-|.|golden=scripts/golden/sized_n6000_seed42.json
shards|G=1 is the single server|--shards 1|-|.|golden
shards|G=4, two runs, charges shard traffic|--shards 4|-|-|!=--shards 1
shards|G=4, MKNN_THREADS 1 vs 4|--shards 4|MKNN_THREADS=1|MKNN_THREADS=4|-
shards|G=4 under chaos, two runs|--shards 4 --fault chaos|-|-|-
shards|G=6 under chaos, two runs|--shards 6 --fault chaos|-|-|-
shards|G=16 under chaos, the committed reference|--shards 16 --fault chaos|-|.|golden=scripts/golden/chaos_g16_seed42.json
chaos|two runs, chaos has an effect|--fault chaos|-|-|!=
chaos|MKNN_THREADS 1 vs 4|--fault chaos|MKNN_THREADS=1|MKNN_THREADS=4|-
chaos|the committed chaos reference|--fault chaos|-|.|golden=scripts/golden/chaos_seed42.json
chaos|chaos cut at tick 30, the committed reference|--fault {"up_loss":0.1,"down_loss":0.1,"up_dup":0.02,"down_dup":0.02,"delay_prob":0.2,"max_delay":2,"churn":0.002,"offline_min":2,"offline_max":6,"horizon":30}|-|.|golden=scripts/golden/chaos_h30_seed42.json
recovery|two runs|--shards 4 --fault crash|-|-|-
recovery|the committed crash reference|--shards 4 --fault crash|-|.|golden=scripts/golden/crash_g4_seed42.json
recovery|MKNN_THREADS 1 vs 4|--shards 4 --fault crash|MKNN_THREADS=1|MKNN_THREADS=4|-
tickbench|N=6000, MKNN_THREADS 1 vs 8|--n 6000 --queries 10 --ticks 20|MKNN_THREADS=1|MKNN_THREADS=8|-
tickbench|N=6000, --threads 1 vs 8|--n 6000 --queries 10 --ticks 20|--threads 1|--threads 8|-
wire|MKNN_THREADS 1 vs 8, equal to the golden file||MKNN_THREADS=1|MKNN_THREADS=8|golden'

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# smoke <outfile> <side> [expt flags...]
# Runs `expt --seed 42 <flags>` under one side's variation (see GATES) and
# captures stdout into "$TMPDIR_VERIFY/<outfile>". Captures go through
# files so a failing `cargo run -q` aborts the script instead of silently
# diffing empty output. The config echo records a pinned `--threads` width;
# that line is dropped so only the episodes are compared.
smoke() {
    local out="$TMPDIR_VERIFY/$1" side="$2"; shift 2
    local envs=() extra=()
    case "$side" in
        -) ;;
        --*) read -ra extra <<< "$side" ;;
        *) envs=("$side") ;;
    esac
    env "${envs[@]}" "${EXPT[@]}" --seed 42 "$@" "${extra[@]}" > "$out" \
        || fail "expt --seed 42 $* ${extra[*]} exited non-zero"
    sed -i '/"client_threads"/d' "$out"
}

# run_gates <stage>: every GATES row of that stage; a failure names its row.
run_gates() {
    local stage row flags a b ref
    while IFS='|' read -r stage row flags a b ref; do
        [ "$stage" = "$1" ] || continue
        echo "==> $stage gate: $row (expt --seed 42 $flags; $a vs $b; ref $ref)"
        # shellcheck disable=SC2086 # flags are a word list
        smoke a "$a" $flags
        if [ "$b" != . ]; then
            # shellcheck disable=SC2086
            smoke b "$b" $flags
            diff -u "$TMPDIR_VERIFY/a" "$TMPDIR_VERIFY/b" >&2 \
                || fail "$stage gate '$row': $a and $b differ"
        fi
        case "$ref" in
            -) ;;
            golden | golden=*)
                local file="$GOLDEN"
                [ "$ref" = golden ] || file="${ref#golden=}"
                diff -u "$file" "$TMPDIR_VERIFY/a" >&2 || fail "$stage gate '$row':" \
                    "output differs from $file (if the metrics schema changed on" \
                    "purpose, regenerate it: ${EXPT[*]} --seed 42 $flags > $file)"
                ;;
            '!='*)
                # shellcheck disable=SC2086
                smoke ref - ${ref#!=}
                if cmp -s "$TMPDIR_VERIFY/ref" "$TMPDIR_VERIFY/a"; then
                    fail "$stage gate '$row': output equals expt --seed 42 ${ref#!=}"
                fi
                ;;
        esac
    done <<< "$GATES"
}

stage_build() {
    # Every target, so a warning only a release build sees (code that only
    # a debug-assertion test uses, say) fails here: clippy and the test
    # stage build in debug. Cargo replays a cached unit's warnings, so the
    # check holds on a warm cache too.
    echo "==> cargo build --release --offline --locked --workspace --all-targets (no warnings)"
    local log="$TMPDIR_VERIFY/build"
    cargo build --release --offline --locked --workspace --all-targets 2>&1 | tee "$log"
    if grep -q '^warning' "$log"; then
        fail "the release build printed warnings (above)"
    fi
}

stage_clippy() {
    echo "==> cargo clippy --workspace --all-targets --offline --locked -- -D warnings"
    cargo clippy --workspace --all-targets --offline --locked -- -D warnings
}

stage_test() {
    echo "==> cargo test -q --offline --locked --workspace"
    cargo test -q --offline --locked --workspace
}

stage_fmt() {
    echo "==> cargo fmt --check"
    cargo fmt --all --check
    cargo fmt --check --manifest-path benchmark/Cargo.toml
}

stage_doc() {
    echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline --locked"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked
}

stage_recovery() {
    # The crash plan must actually schedule windows on the smoke world
    # (crash counters are omit-when-zero, so their presence proves it),
    # and a crash-free G=4 run must not carry any of them.
    smoke crash - --shards 4 --fault crash
    grep -q '"shard_crashes"' "$TMPDIR_VERIFY/crash" \
        || fail "the crash preset scheduled no shard crashes on the smoke run"
    smoke calm - --shards 4
    if grep -Eq '"(shard_crashes|crash_down_ticks|recover_msgs|recover_bytes)"' \
            "$TMPDIR_VERIFY/calm"; then
        fail "a crash-free run leaked crash/recovery counters"
    fi

    echo "==> reconvergence-bound gate (tests/shard_recovery.rs)"
    cargo test -q --release --offline --locked --test shard_recovery
}

stage_tickbench() {
    # Fast-scale E18 re-runs its in-process cross-width identity assertion
    # (an `assert_eq!` on the episodes, so a divergence exits non-zero) and
    # prints the measured scaling table. The wall-clock column is reported,
    # not gated: whole-episode time has an Amdahl ceiling well under the
    # pool width (the world step, routing and the server phase are
    # sequential), and at fast scale the episodes last ~0.2 s, so T=8 vs
    # T=1 on a small runner is noise.
    echo "==> tick-loop scaling (expt --exp e18, fast scale; $(nproc) cores, informational)"
    "${EXPT[@]}" --exp e18
}

stage_wire() {
    echo "==> wire round-trip gate (mknn-net encode/decode property suite)"
    cargo test -q --release --offline --locked -p mknn-net
}

stage_examples() {
    local ex name
    for ex in examples/*.rs; do
        name=$(basename "$ex" .rs)
        echo "==> cargo run --release --example $name"
        cargo run -q --release --offline --locked --example "$name" > "$TMPDIR_VERIFY/example" \
            || fail "example $name exited non-zero"
    done
}

# workload | metrics_digest of its `benchmark/run.sh --quick` run (seed 42),
# timed and traced alike. Two of these configurations no GATES row covers:
# dknn-order at Q = 500 verified every tick (`Record`), and the two-thread
# dknn-buffer run under chaos plus shard crashes.
BENCH_DIGESTS='dist-scale 1340f61c0f15e75b
central-firehose a126b7e6c2d76ef8
sharded-chaos ae49254245d3df22
query-dense 610bb767b6830d3b'
# Prints one "workload digest" line per timed and per traced run.
DIGEST_AWK='/"workload":/ {w = $4} /"metrics_digest":/ {print w, $4}'

stage_benchmark() {
    echo "==> benchmark crate (build + test + benchmark/run.sh --quick)"
    cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
    (cd benchmark && cargo test -q --offline --locked)
    local out="$TMPDIR_VERIFY/benchmark_quick" got name digest
    bash benchmark/run.sh --quick > "$out"
    got=$(awk -F'"' "$DIGEST_AWK" "$out")
    echo "==> benchmark quick digests"
    [ "$(wc -l <<< "$got")" -eq $((2 * $(wc -l <<< "$BENCH_DIGESTS"))) ] \
        || fail "benchmark --quick: expected a timed and a traced digest per workload, got:" \
            "$got"
    while read -r name digest; do
        [ "$(grep -cx "$name $digest" <<< "$got")" -eq 2 ] \
            || fail "benchmark --quick: $name metrics_digest is not $digest (timed and" \
                "traced); got: $(grep "^$name " <<< "$got" | tr '\n' ' ')(if the bytes changed" \
                "on purpose, print the new BENCH_DIGESTS rows: bash benchmark/run.sh --quick" \
                "| awk -F'\"' '$DIGEST_AWK' | uniq)"
    done <<< "$BENCH_DIGESTS"
    # Informational, not gated: a --quick run is too short to hold memory to
    # a bound, but a jump in it next to an unchanged digest is worth a look.
    echo "==> benchmark quick peak_rss_mb (timed runs, informational)"
    awk -F'"' '/"workload":/ {w = $4} /"metrics_digest":/ {d = $4}
        /"peak_rss_mb":/ {getline; sub(/.*: */, ""); sub(/,$/, "");
                          printf "%s %s peak_rss_mb %.1f\n", w, d, $0}' "$out"
}

stage_speedup() {
    # Wall-clock of the fast-mode suite on one worker vs. all cores. On a
    # multi-core runner the parallel run should be measurably faster; on a
    # single-core box the two are expected to tie, so the timing is printed,
    # not gated. The suite is the only run of every experiment, so one that
    # panics exits non-zero and fails the stage (`set -e`).
    echo "==> parallel speedup (expt --exp all, MKNN_THREADS=1 vs default)"
    # Build first, so a stale `expt` is not compiled inside the stopwatch.
    cargo build -q --release --offline --locked -p mknn-bench --bin expt
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

ALL_STAGES=(build clippy test fmt doc determinism golden shards chaos recovery tickbench wire examples benchmark
    speedup)

stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
    stages=("${ALL_STAGES[@]}")
fi
for s in "${stages[@]}"; do
    case " ${ALL_STAGES[*]} " in
        *" $s "*) ;;
        *) echo "unknown stage: $s (valid: ${ALL_STAGES[*]})" >&2; exit 2 ;;
    esac
    run_gates "$s"
    if declare -F "stage_$s" > /dev/null; then
        "stage_$s"
    fi
done

echo "verify: OK (${stages[*]})"
