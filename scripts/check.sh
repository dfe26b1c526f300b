#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps --lib (warnings denied)"
# No dangling or private intra-doc links. `--lib` skips the binaries:
# the `hummingbird` library and binary would collide in the doc tree.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib -q

echo "== cargo test -q"
cargo test -q

echo "== benchmark package (hbbench) build and unit tests"
# hbbench is a package of its own, outside the workspace, so the
# commands above never compile it; build and test it here so a change
# to the core API that breaks the benchmark fails the gate.
cargo test -q --manifest-path crates/bench/src/bin/hbbench/Cargo.toml

echo "== chaos suite (3 fixed seeds + 1 fresh, metrics armed)"
# The chaos tests always run their three fixed seeds; HB_CHAOS_SEED
# adds one fresh seed per run so the fault matrix keeps exploring.
# The suite arms the observability layer itself, so every fault path
# is exercised with live metrics. On failure, the seed below
# reproduces it exactly.
HB_CHAOS_SEED=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
if ! HB_CHAOS_SEED="$HB_CHAOS_SEED" cargo test -q -p hb-server --test chaos; then
    echo "chaos suite FAILED; reproduce with: HB_CHAOS_SEED=$HB_CHAOS_SEED cargo test -p hb-server --test chaos"
    exit 1
fi

echo "== daemon loopback smoke test"
# Drive a real served socket end to end — load, analyze, edit, query,
# dump — then check the daemon's slack answer against a cold one-shot
# analysis of the dumped (edited) design.
cargo build -q --release -p hb-cli
HB=target/release/hummingbird
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
$HB serve --listen 127.0.0.1:0 > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve never announced its port"; exit 1; }
$HB query "$ADDR" load designs/two_phase_pipeline.hum
$HB query "$ADDR" analyze
# A repeated analysis of an unchanged design is served entirely from
# the slack cache's versions: it must sweep nothing.
$HB query "$ADDR" analyze | tee "$SMOKE_DIR/reanalyze.out"
grep -q " items_swept=0 " "$SMOKE_DIR/reanalyze.out" || {
    echo "a repeated analyze re-swept items: $(head -1 "$SMOKE_DIR/reanalyze.out")"
    exit 1
}
# The first ECO prepares cold and keeps its prepared state; the next
# two patch that state in place. The last leaves the design the dump
# below holds, so the warm answer is taken from it.
$HB query "$ADDR" eco resize b0 1
$HB query "$ADDR" eco resize b0 -1
$HB query "$ADDR" eco resize b0 1 | tee "$SMOKE_DIR/eco.out"
grep -q "items_reused" "$SMOKE_DIR/eco.out"
# A what-if build after the ECOs runs on the resident prepared state
# and puts it back: `min-period` must not prepare the design cold.
cold_preparations() {
    $HB query "$ADDR" metrics | awk '
        $1 == "hb_prepare_total{kind=\"cold\"}" { n = $2 }
        END { print n + 0 }
    '
}
COLD_BEFORE=$(cold_preparations)
$HB query "$ADDR" min-period
COLD_AFTER=$(cold_preparations)
echo "cold preparations across min-period: $COLD_BEFORE -> $COLD_AFTER"
[ "$COLD_BEFORE" = "$COLD_AFTER" ] || {
    echo "min-period after the ECOs prepared the design cold"; exit 1
}
$HB query "$ADDR" slack mid
$HB query "$ADDR" dump > "$SMOKE_DIR/dump.out"
# Strip the reply header; the payload is the edited .hum design.
tail -n +2 "$SMOKE_DIR/dump.out" > "$SMOKE_DIR/edited.hum"
# Metrics smoke: the exposition must parse (every sample line is
# `series value`) and the request counters must cover the five
# requests issued above plus the metrics query itself.
$HB query "$ADDR" metrics > "$SMOKE_DIR/metrics.out"
head -1 "$SMOKE_DIR/metrics.out" | grep -q "format=prometheus-text"
tail -n +2 "$SMOKE_DIR/metrics.out" | awk '
    NF == 0 || /^#/ { next }
    NF != 2 || $2 !~ /^-?[0-9]/ { print "bad exposition line: " $0; bad = 1 }
    $1 ~ /^hb_requests_total{/ { sum += $2 }
    END {
        if (bad) exit 1
        if (sum < 6) { print "hb_requests_total covers " sum " < 6 requests"; exit 1 }
        print "metrics exposition ok: hb_requests_total=" sum
    }
'
# The two later ECOs patched the resident prepared state in place.
tail -n +2 "$SMOKE_DIR/metrics.out" | awk '
    $1 == "hb_prepare_total{kind=\"patched\"}" { patched = $2 }
    END {
        if (patched < 2) { print "hb_prepare_total{kind=patched} is " patched + 0 " < 2"; exit 1 }
        print "patched preparations: " patched
    }
'
# A `design` line after a module is a parse error at that line, not a
# worker panic: the reply is `error code=parse` and nothing recovers.
printf 'module top\n  port in a\ndesign foo\n  inst u1 INV_X1 A=a Y=y\nend\n' \
    > "$SMOKE_DIR/late_design.hum"
$HB query "$ADDR" load "$SMOKE_DIR/late_design.hum" \
    > "$SMOKE_DIR/late_design.out" 2> "$SMOKE_DIR/late_design.err" || true
head -1 "$SMOKE_DIR/late_design.out" | grep -q "^error code=parse" || {
    echo "a late design line was not a parse error: $(head -1 "$SMOKE_DIR/late_design.out")"
    exit 1
}
$HB query "$ADDR" stats | tee "$SMOKE_DIR/late_design.stats"
grep -q " recoveries=0 " "$SMOKE_DIR/late_design.stats" || {
    echo "a malformed load cost a recovery"; exit 1
}
WARM=$(sed -n 's/^ok .*worst=\([^ ]*\).*/\1/p' "$SMOKE_DIR/eco.out")
$HB query "$ADDR" shutdown
wait "$SERVE_PID"
$HB analyze "$SMOKE_DIR/edited.hum" > "$SMOKE_DIR/cold.out" || true
COLD=$(sed -n 's/.*worst slack \([^ ]*\) .*/\1/p' "$SMOKE_DIR/cold.out" | head -1)
echo "warm worst slack: $WARM / cold worst slack: $COLD"
[ -n "$WARM" ] && [ "$WARM" = "$COLD" ] || {
    echo "daemon and one-shot analyses disagree"; exit 1
}

echo "== what-if smoke test (parametric verbs, zero re-sweeps)"
# Serve a generated design whose feasibility boundary is interior to
# the parametric domain, then drive the what-if verbs end to end.
# Two contracts are gated here: `slack-at` at the nominal period is
# bit-identical to the numeric answer of record, and the what-if
# verbs answer without adding a single (cluster, pass) sweep sample
# beyond the resident analysis — the symbolic table is doing the
# work, not hidden re-analysis.
$HB gen --kind sram --cells 2000 --seed 7 -o "$SMOKE_DIR/whatif.hum"
$HB serve --listen 127.0.0.1:0 > "$SMOKE_DIR/whatif_serve.log" &
WHATIF_PID=$!
WADDR=""
for _ in $(seq 1 100); do
    WADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/whatif_serve.log")
    [ -n "$WADDR" ] && break
    sleep 0.1
done
[ -n "$WADDR" ] || { echo "what-if serve never announced its port"; exit 1; }
$HB query "$WADDR" load "$SMOKE_DIR/whatif.hum"
NUMERIC_WORST=$($HB query "$WADDR" analyze | sed -n 's/^ok .*worst=\([^ ]*\).*/\1/p')
[ -n "$NUMERIC_WORST" ] || { echo "what-if analyze carried no worst="; exit 1; }
sweep_count() { # total (cluster, pass) sweep samples the engine recorded
    $HB query "$1" metrics | awk '
        $1 ~ /^hb_engine_sweep_nanoseconds_count/ { sum += $2 }
        END { print sum + 0 }'
}
S1=$(sweep_count "$WADDR")
$HB query "$WADDR" min-period | tee "$SMOKE_DIR/minperiod.out"
grep -q "feasible=1" "$SMOKE_DIR/minperiod.out"
MINP=$(sed -n 's/^ok period=\([^ ]*\).*/\1/p' "$SMOKE_DIR/minperiod.out")
NOM=$(sed -n 's/^ok .*nominal=\([^ ]*\).*/\1/p' "$SMOKE_DIR/minperiod.out")
[ -n "$MINP" ] && [ -n "$NOM" ] || { echo "min-period reply missing fields"; exit 1; }
$HB query "$WADDR" slack-at "period=$MINP" | grep -q "ok=1"
AT_NOM=$($HB query "$WADDR" slack-at "period=$NOM" | sed -n 's/^ok .*worst=\([^ ]*\).*/\1/p')
$HB query "$WADDR" period-sweep "lo=$MINP" "hi=$NOM" step=1ns | grep -q "^ok count="
# A terminal read by name through the what-if table at the nominal
# period answers as the numeric read does: the same `slack=` and the
# same per-row payload. `u10` is a flip-flop of this design.
$HB query "$WADDR" slack u10 > "$SMOKE_DIR/u10.out"
$HB query "$WADDR" slack-at "period=$NOM" node=u10 > "$SMOKE_DIR/u10_at.out"
U10=$(sed -n '1s/^ok .*kind=terminal .*slack=\([^ ]*\)$/\1/p' "$SMOKE_DIR/u10.out")
U10_AT=$(sed -n '1s/^ok .*kind=terminal .*slack=\([^ ]*\)$/\1/p' "$SMOKE_DIR/u10_at.out")
echo "u10 terminal slack: $U10 / what-if at nominal: $U10_AT"
[ -n "$U10" ] && [ "$U10" = "$U10_AT" ] || {
    echo "slack-at node=u10 at the nominal period diverges from slack node=u10"; exit 1
}
[ "$(tail -n +2 "$SMOKE_DIR/u10.out")" = "$(tail -n +2 "$SMOKE_DIR/u10_at.out")" ] || {
    echo "slack-at node=u10 rows differ from slack node=u10 rows"; exit 1
}
S2=$(sweep_count "$WADDR")
$HB query "$WADDR" shutdown
wait "$WHATIF_PID"
echo "what-if worst at nominal: $AT_NOM / numeric: $NUMERIC_WORST (sweep samples $S1 -> $S2)"
[ "$AT_NOM" = "$NUMERIC_WORST" ] || {
    echo "parametric nominal slack diverges from the numeric answer"; exit 1
}
[ "$S1" -gt 0 ] || { echo "sweep counter never armed"; exit 1; }
[ "$S1" = "$S2" ] || {
    echo "what-if verbs re-swept the design ($S1 -> $S2)"; exit 1
}

echo "== reactor loopback smoke test"
# The event loop end to end: serve, load, then a pipelined transcript
# with a batched multi-node slack, then shutdown.
$HB serve --listen 127.0.0.1:0 > "$SMOKE_DIR/reactor.log" &
REACTOR_PID=$!
RADDR=""
for _ in $(seq 1 100); do
    RADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/reactor.log")
    [ -n "$RADDR" ] && break
    sleep 0.1
done
[ -n "$RADDR" ] || { echo "reactor serve never announced its port"; exit 1; }
$HB query "$RADDR" load designs/two_phase_pipeline.hum
$HB query "$RADDR" analyze
printf 'slack mid\nslack a1y b0y dout\nslack mid cap mid\nworst-paths 3\nstats\n' > "$SMOKE_DIR/reqs.txt"
$HB query "$RADDR" --pipeline "$SMOKE_DIR/reqs.txt" | tee "$SMOKE_DIR/pipeline.out"
grep -q "count=3" "$SMOKE_DIR/pipeline.out"   # the batched slack answered all 3 nodes
# Two latch terminals by name, one repeated: two distinct nodes, each
# one `terminal` line.
grep -q "count=2" "$SMOKE_DIR/pipeline.out"
[ "$(grep -cE '^(mid|cap) terminal ' "$SMOKE_DIR/pipeline.out")" = 2 ] || {
    echo "slack mid cap mid did not answer two terminal lines"; exit 1
}
grep -q "conn_buffer_bytes=" "$SMOKE_DIR/pipeline.out"
$HB query "$RADDR" shutdown
wait "$REACTOR_PID"

echo "== fleet loopback smoke test (two tenants, failover)"
# Two tenants on a primary with a warm standby: per-design loads and
# concurrent ECOs stream to the standby through the journal; killing
# the primary outright promotes the standby, which must answer
# bit-identically to the primary's last acknowledged state and then
# accept writes of its own.
$HB serve --listen 127.0.0.1:0 --max-designs 8 > "$SMOKE_DIR/primary.log" &
PRIMARY_PID=$!
PADDR=""
for _ in $(seq 1 100); do
    PADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/primary.log")
    [ -n "$PADDR" ] && break
    sleep 0.1
done
[ -n "$PADDR" ] || { echo "fleet primary never announced its port"; exit 1; }
$HB serve --listen 127.0.0.1:0 --standby-of "$PADDR" > "$SMOKE_DIR/standby.log" &
STANDBY_PID=$!
SADDR=""
for _ in $(seq 1 100); do
    SADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/standby.log")
    [ -n "$SADDR" ] && break
    sleep 0.1
done
[ -n "$SADDR" ] || { echo "fleet standby never announced its port"; exit 1; }
for D in d1 d2; do
    $HB query "$PADDR" open "$D"
    $HB query "$PADDR" --design "$D" load designs/two_phase_pipeline.hum
    $HB query "$PADDR" --design "$D" analyze
done
# Concurrent ECOs on both tenants: per-design locks, no cross-talk.
$HB query "$PADDR" --design d1 eco resize b0 1 > "$SMOKE_DIR/eco_d1.out" &
ECO1_PID=$!
$HB query "$PADDR" --design d2 eco resize a0 1 > "$SMOKE_DIR/eco_d2.out" &
ECO2_PID=$!
wait "$ECO1_PID"
wait "$ECO2_PID"
grep -q "items_reused" "$SMOKE_DIR/eco_d1.out"
grep -q "items_reused" "$SMOKE_DIR/eco_d2.out"
# The primary's answers of record (seconds= is wall-clock noise).
for D in d1 d2; do
    $HB query "$PADDR" --design "$D" slack mid \
        | sed 's/seconds=[^ ]*/seconds=_/g' > "$SMOKE_DIR/primary_$D.out"
    $HB query "$PADDR" --design "$D" dump \
        | sed 's/seconds=[^ ]*/seconds=_/g' >> "$SMOKE_DIR/primary_$D.out"
done
fleet_fp() { # $1 addr, $2 design: the fp= column of its `designs` line
    "$HB" query "$1" designs | awk -v d="$2" '
        $1 == d { for (i = 1; i <= NF; i++) if (sub(/^fp=/, "", $i)) print $i }'
}
P1=$(fleet_fp "$PADDR" d1)
P2=$(fleet_fp "$PADDR" d2)
CAUGHT_UP=""
for _ in $(seq 1 200); do
    if [ "$(fleet_fp "$SADDR" d1)" = "$P1" ] && [ "$(fleet_fp "$SADDR" d2)" = "$P2" ]; then
        CAUGHT_UP=1
        break
    fi
    sleep 0.1
done
[ -n "$CAUGHT_UP" ] || { echo "standby never caught up to the primary"; exit 1; }
# Kill the primary outright; the standby promotes after missed syncs
# (promote_after x sync_interval, 600 ms at the defaults). Poll its
# stats for the role flip rather than sleeping a fixed grace.
kill -9 "$PRIMARY_PID"
wait "$PRIMARY_PID" 2>/dev/null || true
PROMOTED=""
for _ in $(seq 1 200); do
    if $HB query "$SADDR" stats | grep -q "role=primary"; then
        PROMOTED=1
        break
    fi
    sleep 0.05
done
[ -n "$PROMOTED" ] || { echo "standby never reported role=primary"; exit 1; }
for D in d1 d2; do
    $HB query "$SADDR" --design "$D" slack mid \
        | sed 's/seconds=[^ ]*/seconds=_/g' > "$SMOKE_DIR/standby_$D.out"
    $HB query "$SADDR" --design "$D" dump \
        | sed 's/seconds=[^ ]*/seconds=_/g' >> "$SMOKE_DIR/standby_$D.out"
    diff "$SMOKE_DIR/primary_$D.out" "$SMOKE_DIR/standby_$D.out" || {
        echo "failover: standby answers diverged for $D"; exit 1
    }
done
# The promoted standby accepts writes of its own.
$HB query "$SADDR" --design d1 eco resize a0 1 | grep -q "items_reused"
$HB query "$SADDR" shutdown
wait "$STANDBY_PID"
echo "fleet failover smoke ok: standby answers bit-identical"

echo "== quorum failover smoke test (three nodes, kill the primary)"
# A full quorum cluster over real sockets: a primary and two ranked
# standbys carrying each other as --peers. Killing the primary must
# promote exactly one standby by majority election; the loser keeps
# fencing writes and chains behind the winner.
free_port() {
    python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); print(s.getsockname()[1])'
}
QA="127.0.0.1:$(free_port)"
QB="127.0.0.1:$(free_port)"
QC="127.0.0.1:$(free_port)"
$HB serve --listen "$QA" --peers "$QB,$QC" > "$SMOKE_DIR/qa.log" &
QA_PID=$!
$HB serve --listen "$QB" --standby-of "$QA" --peers "$QA,$QC" > "$SMOKE_DIR/qb.log" &
QB_PID=$!
$HB serve --listen "$QC" --standby-of "$QA" --peers "$QA,$QB" > "$SMOKE_DIR/qc.log" &
QC_PID=$!
for LOG in qa qb qc; do
    UP=""
    for _ in $(seq 1 100); do
        grep -q "^listening on " "$SMOKE_DIR/$LOG.log" && { UP=1; break; }
        sleep 0.1
    done
    [ -n "$UP" ] || { echo "quorum node $LOG never announced its port"; exit 1; }
done
$HB query "$QA" load designs/two_phase_pipeline.hum
$HB query "$QA" analyze
$HB query "$QA" eco resize b0 1 | grep -q "items_reused"
$HB query "$QA" stats | grep -q "role=primary term=1"
QFP=$(fleet_fp "$QA" default)
for NODE in "$QB" "$QC"; do
    SYNCED=""
    for _ in $(seq 1 200); do
        [ "$(fleet_fp "$NODE" default)" = "$QFP" ] && { SYNCED=1; break; }
        sleep 0.05
    done
    [ -n "$SYNCED" ] || { echo "quorum standby $NODE never caught up"; exit 1; }
done
kill -9 "$QA_PID"
wait "$QA_PID" 2>/dev/null || true
WINNER=""
for _ in $(seq 1 200); do
    for NODE in "$QB" "$QC"; do
        if $HB query "$NODE" stats | grep -q "role=primary"; then
            WINNER="$NODE"
            break
        fi
    done
    [ -n "$WINNER" ] && break
    sleep 0.05
done
[ -n "$WINNER" ] || { echo "no standby won the election"; exit 1; }
if [ "$WINNER" = "$QB" ]; then LOSER="$QC"; else LOSER="$QB"; fi
$HB query "$LOSER" stats | grep -q "role=primary" && {
    echo "split brain: both standbys promoted"; exit 1
}
# The winner's term moved past the dead primary's; it accepts writes.
$HB query "$WINNER" stats | grep -Eq "term=([2-9]|[0-9]{2,})"
$HB query "$WINNER" eco resize a0 1 | grep -q "items_reused"
# The loser stays fenced and chains behind the winner's new state
# (the client exits nonzero on the error reply, hence the `|| true`).
LOSER_OUT=$($HB query "$LOSER" eco resize a0 1 2>&1 || true)
echo "$LOSER_OUT" | grep -q "fenced" || {
    echo "loser write was not fenced: $LOSER_OUT"; exit 1
}
WFP=$(fleet_fp "$WINNER" default)
CHAINED=""
for _ in $(seq 1 200); do
    [ "$(fleet_fp "$LOSER" default)" = "$WFP" ] && { CHAINED=1; break; }
    sleep 0.05
done
[ -n "$CHAINED" ] || { echo "loser never chained behind the winner"; exit 1; }
$HB query "$WINNER" shutdown
$HB query "$LOSER" shutdown
wait "$QB_PID" 2>/dev/null || true
wait "$QC_PID" 2>/dev/null || true
echo "quorum failover smoke ok: single promotion, loser fenced and chained"

echo "== generator smoke test (gen -> load -> analyze -> slack)"
# Generate a 10k-cell design, serve it, and query a slack through the
# daemon: the generator's output must be loadable and analyzable as an
# ordinary .hum file, not just in-process.
$HB gen --kind sram --cells 10000 --seed 1 -o "$SMOKE_DIR/gen10k.hum"
$HB analyze "$SMOKE_DIR/gen10k.hum" > "$SMOKE_DIR/gen10k.out" || {
    rc=$?
    [ "$rc" -eq 1 ] || { echo "gen smoke: analyze failed with $rc"; exit 1; }
}
grep -q "worst slack" "$SMOKE_DIR/gen10k.out"
$HB serve --listen 127.0.0.1:0 > "$SMOKE_DIR/gen_serve.log" &
GEN_SERVE_PID=$!
GADDR=""
for _ in $(seq 1 100); do
    GADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/gen_serve.log")
    [ -n "$GADDR" ] && break
    sleep 0.1
done
[ -n "$GADDR" ] || { echo "gen smoke serve never announced its port"; exit 1; }
$HB query "$GADDR" load "$SMOKE_DIR/gen10k.hum"
$HB query "$GADDR" analyze | grep -q "worst="
$HB query "$GADDR" slack do0 | grep -q "slack"
$HB query "$GADDR" shutdown
wait "$GEN_SERVE_PID"
echo "generator smoke ok"

echo "== stdio transport smoke test (serve --stdio over a pipe)"
# The CLI's stdio transport as a process: the generated design rides in
# one `load` payload over a pipe, many reads long, followed by analyze,
# a slack query and shutdown. Every request gets exactly one reply, the
# daemon exits 0, and its worst slack matches the one-shot analysis.
{
    printf 'load payload=%d\n' "$(wc -c < "$SMOKE_DIR/gen10k.hum")"
    cat "$SMOKE_DIR/gen10k.hum"
    printf '\nanalyze\nslack node=do0\nshutdown\n'
} | $HB serve --stdio > "$SMOKE_DIR/stdio.out" || {
    echo "serve --stdio exited nonzero"; exit 1
}
# Count reply frames, stepping over each declared payload (and its
# terminating newline) byte for byte.
STDIO_REPLIES=$(LC_ALL=C awk '
    need > 0 { need -= length($0) + 1; next }
    { replies++ }
    match($0, / payload=[0-9]+$/) { need = substr($0, RSTART + 9) + 1 }
    END { print replies + 0 }' "$SMOKE_DIR/stdio.out")
STDIO_WORST=$(sed -n 's/^ok .*worst=\([^ ]*\).*/\1/p' "$SMOKE_DIR/stdio.out" | head -1)
ONESHOT_WORST=$(sed -n 's/.*worst slack \([^ ]*\) .*/\1/p' "$SMOKE_DIR/gen10k.out" | head -1)
echo "stdio: $STDIO_REPLIES replies, worst slack $STDIO_WORST / one-shot $ONESHOT_WORST"
[ "$STDIO_REPLIES" = 4 ] || { echo "stdio smoke: expected 4 replies"; exit 1; }
[ -n "$STDIO_WORST" ] && [ "$STDIO_WORST" = "$ONESHOT_WORST" ] || {
    echo "stdio daemon and one-shot analyses disagree"; exit 1
}

echo "== generator prep-time regression gate (100k cells)"
# Preparing a 100k-cell design (the profile's "shard build" line,
# which is the analyzer's preprocessing) must stay within 25% of the
# committed BENCH_perf.json scaling row. Best of two runs.
$HB gen --kind sram --cells 100000 --seed 1 -o "$SMOKE_DIR/gen100k.hum"
prep_seconds() { # the shard-build profile line
    $HB analyze "$SMOKE_DIR/gen100k.hum" --profile 2>/dev/null | awk '
        /^ *shard build/ { s += $3 }
        END { printf "%.6f", s }'
}
P1=$(prep_seconds)
P2=$(prep_seconds)
FRESH=$(awk -v a="$P1" -v b="$P2" 'BEGIN { print (a < b) ? a : b }')
BASE=$(awk '
    /"scaling"/ { inside = 1 }
    inside && /"cells": 100000,/ {
        if (match($0, /"prep_seconds": [0-9.]+/)) {
            print substr($0, RSTART + 16, RLENGTH - 16); exit
        }
    }' BENCH_perf.json)
[ -n "$BASE" ] && [ -n "$FRESH" ] || {
    echo "prep gate: missing measurements (base=$BASE fresh=$FRESH)"; exit 1
}
awk -v base="$BASE" -v fresh="$FRESH" 'BEGIN {
    printf "prep gate: committed %.3fs, fresh %.3fs (%.0f%%)\n", base, fresh, 100 * fresh / base
    if (fresh > base / 0.8) {
        printf "prep-time regression: 100k prep slowed more than 25%%\n"
        exit 1
    }
}'

echo "== full generator property matrix"
HB_GEN_FULL=1 cargo test -q -p hb-bench --test gen_properties
# The what-if matrix: symbolic against cold numeric runs on 10k-cell
# designs of every family at three seeds.
HB_GEN_FULL=1 cargo test -q -p hb-bench --test whatif_parity

echo "== server qps regression gate"
# A quick benchmark run must stay within 20% of the committed
# BENCH_server.json on the load-bearing throughput numbers: sequential
# slack qps (one design and the eight-design fleet) and pipelined
# slack qps. Quick mode uses fewer samples and the box may
# be loaded, so take the best of two runs; the 20% band absorbs the
# remaining noise without letting a real regression through.
cargo build -q --release -p hb-bench --bin server_bench
target/release/server_bench --quick --out "$SMOKE_DIR/bench_a.json" > /dev/null
target/release/server_bench --quick --out "$SMOKE_DIR/bench_b.json" > /dev/null
gate_qps() { # $1 file, $2 section regex: first queries_per_second after it
    awk -v sec="$2" '
        $0 ~ sec { inside = 1 }
        inside && /"queries_per_second"/ {
            gsub(/[^0-9.]/, "", $2); print $2; exit
        }
    ' "$1"
}
for section in '"slack_query"' '"fleet8"' '"slack_pipelined"'; do
    BASE=$(gate_qps BENCH_server.json "$section")
    A=$(gate_qps "$SMOKE_DIR/bench_a.json" "$section")
    B=$(gate_qps "$SMOKE_DIR/bench_b.json" "$section")
    FRESH=$(awk -v a="$A" -v b="$B" 'BEGIN { print (a > b) ? a : b }')
    [ -n "$BASE" ] && [ -n "$FRESH" ] || {
        echo "qps gate: missing $section in benchmark JSON"; exit 1
    }
    awk -v base="$BASE" -v fresh="$FRESH" -v sec="$section" 'BEGIN {
        pct = 100 * fresh / base
        printf "%s: committed %.0f qps, fresh %.0f qps (%.0f%%)\n", sec, base, fresh, pct
        if (fresh < 0.8 * base) {
            printf "qps regression: %s dropped more than 20%%\n", sec
            exit 1
        }
    }'
done

# Failover gate: promotion downtime stays bounded and the standby
# resync actually flows through the bounded pager (multiple pages,
# nonzero bytes). Downtime takes the best of the two quick runs; the
# 2 s ceiling is ~4x the committed figure, absorbing a loaded box.
gate_field() { # $1 file, $2 field name: its numeric value
    awk -v f="\"$2\"" '$0 ~ f { gsub(/[^0-9.]/, "", $2); print $2; exit }' "$1"
}
DT_A=$(gate_field "$SMOKE_DIR/bench_a.json" promotion_downtime_ms)
DT_B=$(gate_field "$SMOKE_DIR/bench_b.json" promotion_downtime_ms)
PAGES=$(gate_field "$SMOKE_DIR/bench_a.json" resync_pages)
BYTES=$(gate_field "$SMOKE_DIR/bench_a.json" resync_bytes_paged)
[ -n "$DT_A" ] && [ -n "$DT_B" ] && [ -n "$PAGES" ] && [ -n "$BYTES" ] || {
    echo "failover gate: missing fields in benchmark JSON"; exit 1
}
awk -v a="$DT_A" -v b="$DT_B" -v pages="$PAGES" -v bytes="$BYTES" 'BEGIN {
    dt = (a < b) ? a : b
    printf "failover gate: downtime %.0f ms, resync %d pages / %d bytes\n", dt, pages, bytes
    if (dt > 2000) { printf "failover regression: promotion downtime %.0f ms > 2000 ms\n", dt; exit 1 }
    if (pages < 2) { printf "failover regression: resync collapsed to %d page(s)\n", pages; exit 1 }
    if (bytes <= 0) { printf "failover regression: no resync bytes paged\n"; exit 1 }
}'

echo "== all checks passed"
