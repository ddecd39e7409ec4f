#!/usr/bin/env bash
# CI crash-recovery smoke: prove the kill-and-resume guarantee end to end
# with a REAL SIGKILL, not a simulated cut.
#
#   scripts/crash_recovery_smoke.sh
#
# 1. Runs `dkc coreness` on the web-tiny fixture uninterrupted and records
#    its benchmark report (the reference).
# 2. Starts the same run with `--checkpoint ... --checkpoint-every 2` in the
#    background, waits for the first checkpoint to appear, and SIGKILLs the
#    process mid-run (asserting the run did NOT finish: its report file must
#    not exist).
# 3. Resumes from the checkpoint with `--resume`, diffs the resumed run's
#    printed `top 20` block (every node's value on this fixture) against
#    the reference's, and diffs the resumed report against the reference
#    via `dkc-bench check`: every gated deterministic counter must be
#    byte-identical. Resume rebuilds part of the node state (the inverse
#    update order and the N_v stamps), so values are checked, not only
#    counters. The crash-stop window opens at round 2, so the checkpoint
#    holds frozen nodes. The kill can leave a temp slot (`<checkpoint>.tmp`
#    or `.tmp1`) beside the checkpoint; none may remain after the resume.
# 4. Repeats steps 1-3 with byzantine faults and quarantine added, a
#    misbehaviour window still open at the first checkpoint: the resumed
#    run rebuilds each node's quarantine round from the plan in the
#    checkpoint, and must silence the same senders in the same rounds.
# 5. Repeats steps 1-3 on a generated 700x700 grid, whose ~6 MB images
#    span several write buffers: the kill lands while later images are
#    still being written and committed behind the rounds, and the resumed
#    run must print every node's value as the reference does. The leg fails
#    if the surviving image is not larger than the two 1 MiB write buffers
#    (`WRITE_BUFFER_BYTES`) together, since then no image would be in
#    flight across buffers when the kill lands.
# 6. Repeats steps 1-3 on the web-tiny fixture with 4 shards: the resumed
#    run rebuilds the partition from the checkpoint's preamble, and
#    `dkc-bench check` holds its `boundary_bits` and `boundary_nodes` to
#    the uninterrupted sharded run's.
#
# Uses the release binaries directly — NOT `cargo run` — so the SIGKILL hits
# the simulator process itself instead of orphaning it behind cargo.
set -euo pipefail
cd "$(dirname "$0")/.."

DKC=target/release/dkc
GATE=target/release/dkc-bench
for bin in "$DKC" "$GATE"; do
    if [[ ! -x "$bin" ]]; then
        echo "crash_recovery_smoke: $bin not built (run: cargo build --release --workspace)" >&2
        exit 2
    fi
done

fixture=bench/fixtures/web-tiny.edges
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
grid="$workdir/grid700.edges"
"$DKC" generate grid --rows 700 --cols 700 --out "$grid" > /dev/null

# Enough rounds that thousands of fsynced checkpoint writes keep the
# background run alive well past the kill; the run parameters (rounds,
# fault plan) are recorded in the checkpoint and recovered on resume.
base_flags=(--rounds 20000 --loss 0.2 --crash 0.3:2:3 --fault-seed 7)

# The printed per-node values: the `top K` header and its node lines.
top_block() { grep -E '^(top [0-9]+ nodes by|  node )'; }

# kill_and_resume LEG INPUT TOP FLAGS...: the reference run, the SIGKILLed
# checkpointed run and the resume of INPUT, all under FLAGS, printing the
# TOP largest values.
kill_and_resume() {
    local leg=$1
    local input=$2
    local top=$3
    shift 3
    local flags=("$@")
    local ck="$workdir/$leg.dkck"
    local ref="$workdir/$leg.reference.json"
    local ref_out="$workdir/$leg.reference.out"
    local resumed="$workdir/$leg.resumed.json"
    local interrupted="$workdir/$leg.interrupted.json"

    echo "crash_recovery_smoke [$leg]: uninterrupted reference run"
    "$DKC" coreness "$input" "${flags[@]}" --top "$top" --json "$ref" > "$ref_out"

    echo "crash_recovery_smoke [$leg]: starting checkpointed run (SIGKILL incoming)"
    "$DKC" coreness "$input" "${flags[@]}" \
        --checkpoint "$ck" --checkpoint-every 2 --json "$interrupted" > /dev/null &
    local pid=$!

    # Wait for the first atomic checkpoint to land, then kill without mercy.
    for _ in $(seq 1 400); do
        [[ -f "$ck" ]] && break
        sleep 0.025
    done
    if [[ ! -f "$ck" ]]; then
        kill -9 "$pid" 2>/dev/null || true
        echo "crash_recovery_smoke [$leg]: no checkpoint appeared within 10s" >&2
        exit 1
    fi
    kill -9 "$pid"
    wait "$pid" 2>/dev/null || true

    if [[ -f "$interrupted" ]]; then
        echo "crash_recovery_smoke [$leg]: the run finished before SIGKILL landed —" \
             "raise --rounds so the kill interrupts it" >&2
        exit 1
    fi
    echo "crash_recovery_smoke [$leg]: killed pid $pid mid-run; checkpoint survives" \
         "($(wc -c < "$ck") bytes)"

    local out
    out=$("$DKC" coreness "$input" --resume "$ck" --top "$top" --json "$resumed")
    if ! grep -q "resumed from checkpoint at round" <<<"$out"; then
        echo "crash_recovery_smoke [$leg]: resume did not report its resume round:" >&2
        echo "$out" >&2
        exit 1
    fi
    grep "resumed from checkpoint at round" <<<"$out"

    echo "crash_recovery_smoke [$leg]: diffing the top-$top values (resumed vs reference)"
    if ! diff <(top_block <<<"$out") <(top_block < "$ref_out"); then
        echo "crash_recovery_smoke [$leg]: the resumed run printed different values" >&2
        exit 1
    fi
    if [[ $(top_block < "$ref_out" | wc -l) -lt 2 ]]; then
        echo "crash_recovery_smoke [$leg]: the reference printed no top-$top block" >&2
        exit 1
    fi

    local slot
    for slot in "$ck".tmp*; do
        if [[ -e "$slot" ]]; then
            echo "crash_recovery_smoke [$leg]: the resume left $slot behind" >&2
            exit 1
        fi
    done

    echo "crash_recovery_smoke [$leg]: diffing deterministic counters (resumed vs reference)"
    "$GATE" check "$resumed" "$ref"
}

kill_and_resume crash "$fixture" 20 "${base_flags[@]}"
kill_and_resume byzantine "$fixture" 20 "${base_flags[@]}" \
    --byzantine 0.3:all:2:40 --quarantine 2
# A thousand rounds of 6 MB images keep the run going for seconds.
kill_and_resume grid "$grid" 490000 --rounds 1000 --loss 0.2 --crash 0.3:2:3 --fault-seed 7
# Two write buffers of WRITE_BUFFER_BYTES (crates/distsim/src/checkpoint.rs).
two_buffers=$((2 * 1048576))
grid_image=$(wc -c < "$workdir/grid.dkck")
if (( grid_image <= two_buffers )); then
    echo "crash_recovery_smoke [grid]: the surviving image is $grid_image bytes," \
         "not more than two write buffers ($two_buffers bytes)" >&2
    exit 1
fi
kill_and_resume sharded "$fixture" 20 "${base_flags[@]}" --shards 4 --shard-seed 3
echo "crash_recovery_smoke: OK — all four killed runs resumed byte-identically"
