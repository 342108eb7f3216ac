#!/usr/bin/env bash
# The full offline CI gate: build, test, format, and a live smoke run
# of the serving daemon. No network access required beyond loopback.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release (tier-1) + workspace bins"
cargo build --release
cargo build --release --workspace

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings (core and cluster crates: altx, serve, consensus, cluster)"
cargo clippy --offline -p altx -p altx-serve -p altx-consensus -p altx-cluster -- -D warnings

# The race registry's core is a pure step(event, now) -> actions
# machine, so the interleaving is a seed: 2 500 seeded schedules of
# everything that can happen to a distributed race, judged by the
# actions alone. A failure prints the altx_check seed that replays it.
echo "==> race-registry schedule property (2500 seeded interleavings, virtual time)"
cargo test -q -p altx-serve --lib remote::tests::any_schedule_posts_exactly_one_admissible_reply

# Elimination is a wake-up: whatever the order and spacing of a body
# going to sleep on its token and the decision cancelling it, the
# sleeper must not outlive the cancel. 600 seeded orderings on real
# threads; a lost wake-up prints the altx_check seed of its schedule.
echo "==> elimination wake-up property (600 seeded sleeper/canceller orderings)"
cargo test -q -p altx --lib cancel::tests::no_schedule_loses_the_wake_up

# E10 runs on the same VoteSlot/Tally the daemon commits with; its
# committed output pins the simulator's behaviour byte for byte.
echo "==> exp_consensus vs the committed E10 block of experiments_output.txt"
cargo build --release -q -p altx-bench --bin exp_consensus
diff <(awk '/^  exp_consensus$/ { found = 1; getline; next }
            found && /^=====/ { exit }
            found' experiments_output.txt | sed '$d') \
    <(./target/release/exp_consensus) || {
    echo "exp_consensus no longer prints the committed E10 block" >&2
    exit 1
}

# The engine's claim protocol and the two suites that used to assert a
# particular winner of a nondeterministic race: gated as "0 failures in
# N", because a concurrency bug that fires one run in ten passes a
# single run nine times in ten.
REPEATS=25
REPEAT_LOG=$(mktemp /tmp/altx-repeat.XXXXXX.log)
echo "==> repeat stage: $REPEATS reruns of the cancel token, race engine, crew, ring and sched suites"
for i in $(seq 1 "$REPEATS"); do
    {
        cargo test -q -p altx cancel:: &&
            cargo test -q -p altx engine::threaded &&
            cargo test -q -p altx --test race_crew &&
            cargo test -q -p altx-serve --test ring --test sched
    } >"$REPEAT_LOG" 2>&1 || {
        cat "$REPEAT_LOG" >&2
        rm -f "$REPEAT_LOG"
        echo "repeat stage: failure in rerun $i of $REPEATS" >&2
        exit 1
    }
done
rm -f "$REPEAT_LOG"
echo "repeat stage: 0 failures in $REPEATS"

echo "==> chaos soak (pinned seed, own process)"
ALTX_CHAOS_SEED=0xC0FFEE cargo test -q -p altx-serve --test chaos_soak

echo "==> cluster chaos soak (pinned seed, 3 in-process nodes, wire faults + healing partition)"
ALTX_CHAOS_SEED=0xC0FFEE cargo test -q -p altx-serve --test cluster_chaos

echo "==> race scheduler suite (hedged launches + batching)"
cargo test -q -p altx-serve --test sched

echo "==> deadline scheduler suite (EDF order, lanes, stealing, admission, drain)"
cargo test -q -p altx-serve --test edf

echo "==> placement suite (fixture sysfs topologies, pin fallback, pin-off zero-syscall gate)"
cargo test -q -p altx-serve --test topo

echo "==> sharded reactor suite (reuseport spread, drain, per-shard telemetry)"
cargo test -q -p altx-serve --test shards

echo "==> reply-ring suite (exhaustion, wraparound, oversize spill, fan-out)"
cargo test -q -p altx-serve --test ring

echo "==> telemetry golden pages (STATS byte-for-byte, Prometheus line set)"
cargo test -q -p altx-serve --test telemetry_golden

echo "==> buffer pool suite (leak/cap properties + >90% steady-state hit rate)"
cargo test -q -p altx-serve --test bufpool

echo "==> bench regression gate: altxd + altx-load vs committed baseline"
BASELINE=BENCH_serve_throughput.json
SMOKE_ADDR=127.0.0.1:7979
SMOKE_OUT=$(mktemp /tmp/altx-smoke.XXXXXX.json)
# The committed baseline is a mixed fast/slow run with the deadline
# scheduler on: tight-deadline `trivial` beside infeasible `sleep`
# fodder, lanes + admission + stealing enabled. The gated metric is
# *goodput* — ok replies inside their deadline — so a scheduling
# regression (sleep work starving the fast class, admission not
# shedding) fails the gate even when raw throughput looks healthy.
# --pin matches the committed baseline's recorded configuration: shards
# on disjoint core sets where the kernel allows it, gracefully unpinned
# where it does not (the gate's 70% floor absorbs either outcome).
./target/release/altxd --addr "$SMOKE_ADDR" --duration 8 --shards 4 --pin \
    --lanes 'rt:trivial;batch:sleep' --admission --steal &
ALTXD_PID=$!
trap 'kill "$ALTXD_PID" 2>/dev/null || true; rm -f "$SMOKE_OUT"' EXIT
sleep 0.3
# Pipelined load (--threads) keeps the generator off the daemon's CPUs;
# this matches the committed baseline's configuration so the floors
# compare like with like.
./target/release/altx-load \
    --addr "$SMOKE_ADDR" --workload trivial:50,sleep:25 --clients 8 --threads 1 \
    --duration 6 --out "$SMOKE_OUT" --hist-diff "$BASELINE"
wait "$ALTXD_PID"

# Every top-level key the committed baseline has must be in the fresh
# report: altx-load emits its server_* / cluster fields by walking the
# daemon's metric table, and a field dropped there would otherwise only
# show up as an empty grep several stages on.
for key in $(grep -o '^  "[a-z0-9_]*":' "$BASELINE"); do
    grep -q "^  $key" "$SMOKE_OUT" || {
        echo "bench gate: fresh report lacks top-level key $key of $BASELINE" >&2
        exit 1
    }
done

# Extract "throughput_rps": N.N with no JSON tooling (offline CI).
rps() {
    grep -o '"throughput_rps": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
BASE_RPS=$(rps "$BASELINE")
FRESH_RPS=$(rps "$SMOKE_OUT")
[ -n "$BASE_RPS" ] && [ -n "$FRESH_RPS" ] || {
    echo "bench gate: missing throughput_rps (baseline='$BASE_RPS' fresh='$FRESH_RPS')" >&2
    exit 1
}
# Fail when fresh throughput drops below 70% of the committed baseline.
# The bound is loose on purpose: the gate catches wreckage (an accidental
# lock on the request path), not noise.
awk -v base="$BASE_RPS" -v fresh="$FRESH_RPS" 'BEGIN {
    printf "bench gate: baseline %.1f rps, fresh %.1f rps (floor %.1f)\n",
        base, fresh, base * 0.70
    exit !(fresh >= base * 0.70)
}' || {
    echo "bench gate: throughput regressed more than 30% vs $BASELINE" >&2
    exit 1
}

# Goodput gate: replies that beat their deadline, per second — the
# primary scheduler metric. Two bounds: the absolute rate gets the same
# 70% wreckage floor as throughput (this box's run-to-run CPU noise is
# ±30%, an absolute 10% bound would gate on the weather), and the
# goodput *fraction* — goodput/throughput, the share of ok replies that
# beat their deadline, which divides the CPU noise out — must hold
# within 10% of the committed baseline's fraction. A scheduler
# regression (fast class queueing behind slow work, admission not
# shedding) moves the fraction; a slow CI box does not.
gp() {
    grep -o '"goodput_rps": *[0-9.]*' "$1" | grep -o '[0-9.]*$'
}
BASE_GP=$(gp "$BASELINE")
FRESH_GP=$(gp "$SMOKE_OUT")
[ -n "$BASE_GP" ] && [ -n "$FRESH_GP" ] || {
    echo "bench gate: missing goodput_rps (baseline='$BASE_GP' fresh='$FRESH_GP')" >&2
    exit 1
}
awk -v base="$BASE_GP" -v fresh="$FRESH_GP" 'BEGIN {
    printf "bench gate: baseline %.1f goodput rps, fresh %.1f (floor %.1f)\n",
        base, fresh, base * 0.70
    exit !(fresh >= base * 0.70)
}' || {
    echo "bench gate: goodput regressed more than 30% vs $BASELINE" >&2
    exit 1
}
awk -v brps="$BASE_RPS" -v bgp="$BASE_GP" -v frps="$FRESH_RPS" -v fgp="$FRESH_GP" 'BEGIN {
    bfrac = bgp / brps; ffrac = fgp / frps
    printf "bench gate: goodput fraction baseline %.4f, fresh %.4f (floor %.4f)\n",
        bfrac, ffrac, bfrac * 0.90
    exit !(ffrac >= bfrac * 0.90)
}' || {
    echo "bench gate: goodput fraction regressed more than 10% vs $BASELINE" >&2
    exit 1
}

# p99 latency gate: the fresh tail must stay within 20% of the
# committed baseline. Tolerant of a baseline that predates the field.
p99() {
    grep -o '"p99_us": *[0-9]*' "$1" | grep -o '[0-9]*$'
}
BASE_P99=$(p99 "$BASELINE")
FRESH_P99=$(p99 "$SMOKE_OUT")
if [ -n "$BASE_P99" ] && [ -n "$FRESH_P99" ]; then
    awk -v base="$BASE_P99" -v fresh="$FRESH_P99" 'BEGIN {
        printf "bench gate: baseline p99 %d us, fresh p99 %d us (ceiling %.1f)\n",
            base, fresh, base * 1.20
        exit !(fresh <= base * 1.20)
    }' || {
        echo "bench gate: p99 latency regressed more than 20% vs $BASELINE" >&2
        exit 1
    }
else
    echo "bench gate: p99 gate skipped (baseline='$BASE_P99' fresh='$FRESH_P99')"
fi

# Ring smoke, from the live daemon's counters (scraped into the report
# by altx-load): steady-state replies must ride the ring — hits cover
# at least 90% of requests — and spills stay a rounding error (the
# stats pages altx-load itself fetches are the expected spillers).
jfield() {
    grep -o "\"$2\": *[0-9]*" "$1" | grep -o '[0-9]*$'
}
RING_HITS=$(jfield "$SMOKE_OUT" server_ring_hits)
RING_SPILLS=$(jfield "$SMOKE_OUT" server_ring_spills)
SMOKE_REQS=$(jfield "$SMOKE_OUT" requests)
echo "ring smoke: ring_hits=$RING_HITS ring_spills=$RING_SPILLS requests=$SMOKE_REQS"
[ -n "$RING_HITS" ] && [ "$RING_HITS" -gt 0 ] || {
    echo "ring smoke: the reply ring was never hit" >&2
    exit 1
}
awk -v hits="$RING_HITS" -v reqs="$SMOKE_REQS" 'BEGIN {
    exit !(hits >= reqs * 0.90)
}' || {
    echo "ring smoke: ring_hits=$RING_HITS below 90% of requests=$SMOKE_REQS" >&2
    exit 1
}
awk -v spills="${RING_SPILLS:-0}" -v reqs="$SMOKE_REQS" 'BEGIN {
    exit !(spills <= reqs * 0.01 + 16)
}' || {
    echo "ring smoke: ring_spills=$RING_SPILLS is not bounded (requests=$SMOKE_REQS)" >&2
    exit 1
}
rm -f "$SMOKE_OUT"
trap - EXIT

echo "==> batching smoke: coalesced burst, asserted via live STATS counters"
BATCH_ADDR=127.0.0.1:7983
BATCH_OUT=$(mktemp /tmp/altx-batch.XXXXXX.json)
# 2 ms coalescing window on both sides: the daemon batches, the load
# generator aligns its arg stream so identical keys actually collide.
# Hedging is on too, so the suppression counters run live.
./target/release/altxd --addr "$BATCH_ADDR" --batch-window-us 2000 --hedge \
    --hedge-min-samples 10 --duration 6 &
BATCH_PID=$!
trap 'kill "$BATCH_PID" 2>/dev/null || true; rm -f "$BATCH_OUT"' EXIT
sleep 0.3
./target/release/altx-load \
    --addr "$BATCH_ADDR" --workload trivial --clients 8 \
    --duration 3 --batch-window-us 2000 --out "$BATCH_OUT"
wait "$BATCH_PID"
# The server_* fields are scraped from the live daemon's STATS page by
# altx-load after the run.
counter() {
    grep -o "\"$1\": *[0-9]*" "$BATCH_OUT" | grep -o '[0-9]*$'
}
COALESCED=$(counter server_requests_coalesced)
SUPPRESSED=$(counter server_launches_suppressed)
echo "batching smoke: requests_coalesced=$COALESCED launches_suppressed=$SUPPRESSED"
[ -n "$COALESCED" ] && [ "$COALESCED" -gt 0 ] || {
    echo "batching smoke: a burst of identical requests never coalesced" >&2
    exit 1
}
[ -n "$SUPPRESSED" ] && [ "$SUPPRESSED" -gt 0 ] || {
    echo "batching smoke: hedging never suppressed a launch" >&2
    exit 1
}
rm -f "$BATCH_OUT"
trap - EXIT

echo "==> admission smoke: infeasible burst is shed at the door, not timed out in the queue"
ADM_ADDR=127.0.0.1:7984
ADM_OUT=$(mktemp /tmp/altx-adm.XXXXXX.json)
# The sleep workload parks an alternative for `arg` ms — far past any
# 25 ms deadline, so every admitted request is a guaranteed timeout.
# With --admission the service table converges on ~deadline within its
# 16-sample warm-up and everything after is shed with OVERLOADED.
./target/release/altxd --addr "$ADM_ADDR" --workers 2 --admission --duration 6 &
ADM_PID=$!
trap 'kill "$ADM_PID" 2>/dev/null || true; rm -f "$ADM_OUT"' EXIT
sleep 0.3
./target/release/altx-load \
    --addr "$ADM_ADDR" --workload sleep --deadline-ms 25 --clients 4 \
    --duration 4 --out "$ADM_OUT"
wait "$ADM_PID"
adm() {
    grep -o "\"$1\": *[0-9]*" "$ADM_OUT" | grep -o '[0-9]*$' | head -1
}
SHEDS=$(adm server_sheds_at_admission)
TIMEOUTS=$(adm deadline_exceeded)
echo "admission smoke: sheds_at_admission=$SHEDS deadline_exceeded=$TIMEOUTS"
[ -n "$SHEDS" ] && [ "$SHEDS" -gt 0 ] || {
    echo "admission smoke: an infeasible burst was never shed at admission" >&2
    exit 1
}
# Only the warm-up (first ~16 service samples plus whatever was already
# in flight) may time out; after that the gate must shed instead.
[ -n "$TIMEOUTS" ] && [ "$TIMEOUTS" -le 100 ] || {
    echo "admission smoke: $TIMEOUTS requests timed out in the queue (want near zero: admission should shed them)" >&2
    exit 1
}
rm -f "$ADM_OUT"
trap - EXIT

echo "==> scheduler A/B gate: mixed fast/slow, FIFO defaults vs EDF+lanes+admission+steal"
AB_ADDR_FIFO=127.0.0.1:7985
AB_ADDR_SCHED=127.0.0.1:7986
AB_OUT_FIFO=$(mktemp /tmp/altx-ab-fifo.XXXXXX.json)
AB_OUT_SCHED=$(mktemp /tmp/altx-ab-sched.XXXXXX.json)
# Same mixed load against both daemons: a 50 ms-deadline fast class
# round-robined with infeasible 40 ms-deadline sleep fodder. Under
# FIFO the sleeps occupy the two workers and the fast class queues
# behind them; the scheduler daemon sheds the sleeps at admission and
# lanes the fast class, so its goodput must be decisively higher and
# its tail decisively lower. Each daemon gets a short priming run
# first so the measured window starts with a warm service table (the
# comparison is steady-state scheduling, not warm-up).
AB_LOAD="--workload trivial:50,sleep:40 --clients 8 --duration 4"
./target/release/altxd --addr "$AB_ADDR_FIFO" --workers 2 --shards 2 --duration 9 &
AB_PID_FIFO=$!
trap 'kill "$AB_PID_FIFO" 2>/dev/null || true; rm -f "$AB_OUT_FIFO" "$AB_OUT_SCHED"' EXIT
sleep 0.3
./target/release/altx-load --addr "$AB_ADDR_FIFO" --workload sleep:40 \
    --clients 4 --duration 2 --out /dev/null >/dev/null
./target/release/altx-load --addr "$AB_ADDR_FIFO" $AB_LOAD --out "$AB_OUT_FIFO"
wait "$AB_PID_FIFO"
./target/release/altxd --addr "$AB_ADDR_SCHED" --workers 2 --shards 2 --duration 9 \
    --lanes 'rt:trivial;batch:sleep' --admission --steal &
AB_PID_SCHED=$!
trap 'kill "$AB_PID_SCHED" 2>/dev/null || true; rm -f "$AB_OUT_FIFO" "$AB_OUT_SCHED"' EXIT
sleep 0.3
./target/release/altx-load --addr "$AB_ADDR_SCHED" --workload sleep:40 \
    --clients 4 --duration 2 --out /dev/null >/dev/null
./target/release/altx-load --addr "$AB_ADDR_SCHED" $AB_LOAD --out "$AB_OUT_SCHED"
wait "$AB_PID_SCHED"
abf() {
    grep -o "\"$2\": *[0-9.]*" "$1" | grep -o '[0-9.]*$' | head -1
}
GP_FIFO=$(abf "$AB_OUT_FIFO" goodput_rps)
GP_SCHED=$(abf "$AB_OUT_SCHED" goodput_rps)
P999_FIFO=$(abf "$AB_OUT_FIFO" p999_us)
P999_SCHED=$(abf "$AB_OUT_SCHED" p999_us)
STEALS=$(abf "$AB_OUT_SCHED" server_steals)
echo "scheduler A/B: goodput fifo=$GP_FIFO sched=$GP_SCHED | p99.9 fifo=$P999_FIFO sched=$P999_SCHED | steals=$STEALS"
awk -v fifo="$GP_FIFO" -v sched="$GP_SCHED" 'BEGIN {
    exit !(sched >= fifo * 1.2)
}' || {
    echo "scheduler A/B: goodput under the deadline scheduler ($GP_SCHED) must beat FIFO ($GP_FIFO) by >=20%" >&2
    exit 1
}
awk -v fifo="$P999_FIFO" -v sched="$P999_SCHED" 'BEGIN {
    exit !(sched < fifo)
}' || {
    echo "scheduler A/B: p99.9 under the deadline scheduler ($P999_SCHED us) must drop below FIFO ($P999_FIFO us)" >&2
    exit 1
}
rm -f "$AB_OUT_FIFO" "$AB_OUT_SCHED"
trap - EXIT

echo "==> placement A/B smoke: identical load, --pin off vs on"
PIN_ADDR_OFF=127.0.0.1:7987
PIN_ADDR_ON=127.0.0.1:7988
PIN_OUT_OFF=$(mktemp /tmp/altx-pin-off.XXXXXX.json)
PIN_OUT_ON=$(mktemp /tmp/altx-pin-on.XXXXXX.json)
# The same closed-loop run against two daemons that differ only in
# --pin. Correctness must be identical (pinning is placement, not
# semantics): zero errors on both sides, real completions on both
# sides. The performance bound is deliberately tolerant — on a noisy
# shared box (or a container whose kernel refuses sched_setaffinity)
# pinning cannot be required to *win*, only to never wreck the daemon:
# the pinned run must hold 70% of the unpinned run's goodput.
PIN_LOAD="--workload trivial --clients 8 --threads 1 --duration 4"
./target/release/altxd --addr "$PIN_ADDR_OFF" --shards 2 --steal --duration 7 &
PIN_PID_OFF=$!
trap 'kill "$PIN_PID_OFF" 2>/dev/null || true; rm -f "$PIN_OUT_OFF" "$PIN_OUT_ON"' EXIT
sleep 0.3
./target/release/altx-load --addr "$PIN_ADDR_OFF" $PIN_LOAD --out "$PIN_OUT_OFF"
wait "$PIN_PID_OFF"
./target/release/altxd --addr "$PIN_ADDR_ON" --shards 2 --steal --pin --duration 7 &
PIN_PID_ON=$!
trap 'kill "$PIN_PID_ON" 2>/dev/null || true; rm -f "$PIN_OUT_OFF" "$PIN_OUT_ON"' EXIT
sleep 0.3
./target/release/altx-load --addr "$PIN_ADDR_ON" $PIN_LOAD --out "$PIN_OUT_ON"
wait "$PIN_PID_ON"
pinf() {
    grep -o "\"$2\": *[0-9.]*" "$1" | grep -o '[0-9.]*$' | head -1
}
OK_OFF=$(grep -o '"ok": *[0-9]*' "$PIN_OUT_OFF" | head -1 | grep -o '[0-9]*$')
OK_ON=$(grep -o '"ok": *[0-9]*' "$PIN_OUT_ON" | head -1 | grep -o '[0-9]*$')
ERR_OFF=$(grep -o '"errors": *[0-9]*' "$PIN_OUT_OFF" | head -1 | grep -o '[0-9]*$')
ERR_ON=$(grep -o '"errors": *[0-9]*' "$PIN_OUT_ON" | head -1 | grep -o '[0-9]*$')
GP_OFF=$(pinf "$PIN_OUT_OFF" goodput_rps)
GP_ON=$(pinf "$PIN_OUT_ON" goodput_rps)
PINNED=$(pinf "$PIN_OUT_ON" server_pinned_shards)
echo "placement A/B: ok off=$OK_OFF on=$OK_ON | errors off=$ERR_OFF on=$ERR_ON | goodput off=$GP_OFF on=$GP_ON | pinned_shards=$PINNED"
[ -n "$OK_OFF" ] && [ "$OK_OFF" -gt 0 ] && [ -n "$OK_ON" ] && [ "$OK_ON" -gt 0 ] || {
    echo "placement A/B: both runs must complete requests (off=$OK_OFF on=$OK_ON)" >&2
    exit 1
}
[ "${ERR_OFF:-0}" -eq 0 ] && [ "${ERR_ON:-0}" -eq 0 ] || {
    echo "placement A/B: pinning must not change correctness (errors off=$ERR_OFF on=$ERR_ON)" >&2
    exit 1
}
awk -v off="$GP_OFF" -v on="$GP_ON" 'BEGIN {
    printf "placement A/B: goodput floor %.1f, pinned run %.1f\n", off * 0.70, on
    exit !(on >= off * 0.70)
}' || {
    echo "placement A/B: --pin dropped goodput below 70% of the unpinned run" >&2
    exit 1
}
rm -f "$PIN_OUT_OFF" "$PIN_OUT_ON"
trap - EXIT

echo "==> idle-connection smoke: 1024 idle conns on O(shards + workers) threads"
IDLE_ADDR=127.0.0.1:7981
IDLE_OUT=$(mktemp /tmp/altx-idle.XXXXXX.log)
./target/release/altxd --addr "$IDLE_ADDR" --workers 4 --shards 4 &
IDLE_PID=$!
trap 'kill "$IDLE_PID" 2>/dev/null || true; rm -f "$IDLE_OUT"' EXIT
sleep 0.3
# 8 load clients plus 1024 held-open idle connections. The load runs
# long enough to sample the daemon's thread count while every
# connection is open; under the sharded reactor that count is
# O(shards + workers), not O(connections).
./target/release/altx-load \
    --addr "$IDLE_ADDR" --workload trivial --clients 8 --connections 1032 \
    --duration 4 --out /dev/null >"$IDLE_OUT" &
LOAD_PID=$!
for _ in $(seq 1 100); do
    grep -q 'holding' "$IDLE_OUT" && break
    sleep 0.1
done
grep -q 'holding' "$IDLE_OUT" || {
    echo "idle smoke: altx-load never reported held connections" >&2
    exit 1
}
THREADS=$(awk '/^Threads:/{print $2}' "/proc/$IDLE_PID/status")
CONNS=$(grep -o 'conns_open=[0-9]*' "$IDLE_OUT" | grep -o '[0-9]*$')
wait "$LOAD_PID"
kill "$IDLE_PID" 2>/dev/null || true
wait "$IDLE_PID" 2>/dev/null || true
echo "idle smoke: daemon threads=$THREADS with conns_open=$CONNS"
[ -n "$CONNS" ] && [ "$CONNS" -ge 1024 ] || {
    echo "idle smoke: expected >=1024 open connections, daemon reported '$CONNS'" >&2
    exit 1
}
[ -n "$THREADS" ] && [ "$THREADS" -le 16 ] || {
    echo "idle smoke: idle connections must not cost threads (threads=$THREADS, want <=16)" >&2
    exit 1
}
rm -f "$IDLE_OUT"
trap - EXIT

echo "==> cluster smoke: 3-node mesh, one peer SIGKILLed mid-run"
C1=127.0.0.1:7991
C2=127.0.0.1:7992
C3=127.0.0.1:7993
CL_OUT1=$(mktemp /tmp/altx-cluster1.XXXXXX.json)
CL_OUT2=$(mktemp /tmp/altx-cluster2.XXXXXX.json)
# Full mesh, aggressive exploration so remote dispatch happens from the
# first seconds. The daemons run until killed; the victim gets SIGKILL
# mid-run — no drain, no goodbye, exactly the failure being tested.
./target/release/altxd --addr "$C1" --workers 2 \
    --peer "$C2" --peer "$C3" --peer-explore-every 2 &
CL_PID1=$!
./target/release/altxd --addr "$C2" --workers 2 \
    --peer "$C1" --peer "$C3" --peer-explore-every 2 &
CL_PID2=$!
./target/release/altxd --addr "$C3" --workers 2 \
    --peer "$C1" --peer "$C2" --peer-explore-every 2 &
CL_PID3=$!
trap 'kill -9 "$CL_PID1" "$CL_PID2" "$CL_PID3" 2>/dev/null || true; rm -f "$CL_OUT1" "$CL_OUT2"' EXIT
sleep 0.5
# Mixed load on the two survivors-to-be. The closed loop is itself the
# liveness assertion: a request stranded by the dead peer would hang a
# client and fail the run; a bounded deadline caps how long any one
# race may take instead.
./target/release/altx-load --addr "$C1" --workload lognormal --clients 4 \
    --deadline-ms 2000 --duration 6 --peers "$C2,$C3" --out "$CL_OUT1" &
CL_LOAD1=$!
./target/release/altx-load --addr "$C2" --workload trivial --clients 4 \
    --deadline-ms 2000 --duration 6 --peers "$C1,$C3" --out "$CL_OUT2" &
CL_LOAD2=$!
sleep 2
kill -9 "$CL_PID3"
wait "$CL_LOAD1"
wait "$CL_LOAD2"
jcount() {
    grep -o "\"$2\": *[0-9]*" "$1" | grep -o '[0-9]*$'
}
W1=$(jcount "$CL_OUT1" remote_wins)
W2=$(jcount "$CL_OUT2" remote_wins)
D1=$(jcount "$CL_OUT1" remote_dispatched)
D2=$(jcount "$CL_OUT2" remote_dispatched)
echo "cluster smoke: remote_dispatched=$((D1 + D2)) remote_wins=$((W1 + W2)) (survivor sums)"
[ $((D1 + D2)) -gt 0 ] || {
    echo "cluster smoke: no alternative was ever shipped to a peer" >&2
    exit 1
}
[ $((W1 + W2)) -gt 0 ] || {
    echo "cluster smoke: survivors never won a race remotely" >&2
    exit 1
}
kill -9 "$CL_PID1" "$CL_PID2" 2>/dev/null || true
wait "$CL_PID1" 2>/dev/null || true
wait "$CL_PID2" 2>/dev/null || true
rm -f "$CL_OUT1" "$CL_OUT2"
trap - EXIT

echo "==> CI gate passed"
