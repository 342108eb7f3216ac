#!/usr/bin/env bash
# Regenerates crates/serve/altxd.order, the functions a release `altxd`
# executes, which LLD places together at the start of its `.text`
# (crates/serve/build.rs; docs/INTERNALS.md § Resident memory).
#
#   bash scripts/hot_text.sh            trace, rewrite the list, relink
#   bash scripts/hot_text.sh --check    trace the shipped build, keep the list
#
# Links altxd the way benchmark/run.sh builds it, but with an empty list,
# builds the tracer scripts/hot_text_step.c with `cc`, then:
#   1. steps every thread of a fresh daemon an instruction at a time from
#      its exec through its start-up, the first (cold) replies to every
#      request shape, a STATS page and the drain;
#   2. for each shape, runs a fresh daemon from its exec to its drain with
#      a breakpoint on every function, each removed when first hit, so
#      the daemon runs at full speed and reaches the warm shard-run,
#      favourite-first and led timed-wait paths (a stepped daemon runs
#      about a thousand times slower and measures its bodies that slow);
#   3. runs each benchmark workload (benchmark/run.sh: its own generator,
#      daemon flags, set-up probes and warm-up) with every daemon it
#      spawns traced the same way — `burst`'s open loop pipelines requests
#      on one connection per class and queues them deeper than the
#      workers, which no closed-loop shape does;
#   4. maps the executed addresses to functions with `nm -S` and lists
#      every function that ran, in the order the unordered link laid them
#      out, then relinks altxd with the new list.
# A shape is a workload at each of the deadlines the benchmark sends it
# with (0, 10 000, 20 000 ms); a function no trace runs is left cold in
# the image. Prints, per trace, the functions it ran, the distinct 4 kB
# pages they span, how many of them no earlier trace ran, and how many
# the list in the tree before the run (with --check, the shipped list)
# lacks. --check traces the build as linked, with the shipped list, and
# rewrites nothing: a non-zero `unlisted` is code the daemon runs from
# outside the hot region. x86-64 Linux; about three minutes. Run it
# again after a change that adds, removes or renames functions on the
# daemon's paths: the hot-region stage of scripts/ci.sh prints how many
# listed names the build still has.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

case "${1:-}" in
    "") CHECK=false ;;
    --check) CHECK=true ;;
    *) echo "usage: bash scripts/hot_text.sh [--check]" >&2; exit 2 ;;
esac
ALTXD=target/release/altxd
LOAD=target/release/altx-load
WORK=target/hot_text
ORDER=crates/serve/altxd.order
LOAD_S=4
SHAPES=(
    "trivial trivial:0,trivial:10000,trivial:20000 1"
    "lognormal lognormal:0,lognormal:10000,lognormal:20000 2"
    "bimodal bimodal:0,bimodal:10000,bimodal:20000 2"
    "prolog prolog:0,prolog:10000,prolog:20000 2"
)
BENCH_WORKLOADS=(overhead race cpu burst)

rm -rf "$WORK"
mkdir -p "$WORK"
cc -O2 -Wall -o "$WORK/step" scripts/hot_text_step.c

# The trace is taken on the unordered layout, so the list does not
# depend on the one before it; that one is put back if the run fails.
cp "$ORDER" "$WORK/previous.order"
$CHECK || : >"$ORDER"
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; [ -s "$ORDER" ] || cp "$WORK/previous.order" "$ORDER"' EXIT
cargo build --release --offline --locked -p altx-serve --bin altxd
cargo build --release --offline --locked -p altx-serve --bin altx-load
# Every function, by address: a function runs from its address to the
# next function's (or its own size, if less); aliases share one entry.
nm -n -S -t d --defined-only "$ALTXD" |
    awk 'NF == 4 && $3 ~ /^[tTwWi]$/ { print $1, $2, $4 } NF == 3 && $2 ~ /^[tTwWi]$/ { print $1, 0, $3 }' \
        >"$WORK/functions"
awk '{ print $1 }' "$WORK/functions" >"$WORK/entries"

# The address a daemon started with `--addr 127.0.0.1:0` listens on,
# read from its stdout ($1) once it has bound.
listening() {
    for _ in $(seq 1 1200); do
        local addr
        addr=$(sed -n 's/^altxd listening on \([^ ]*\) .*/\1/p' "$1")
        [ -z "$addr" ] || { echo "$addr"; return; }
        sleep 0.1
    done
    echo "hot_text.sh: no altxd started (see $1)" >&2
    exit 1
}

# A STATS page, then SHUTDOWN, on one connection (a frame is a 32-bit
# big-endian length and the body; the opcodes are 0x02 and 0x04); the
# daemon closes it when it has drained.
stats_and_drain() {
    exec 3<>"/dev/tcp/${1%:*}/${1##*:}"
    printf '\0\0\0\1\2\0\0\0\1\4' >&3
    cat <&3 >/dev/null
    exec 3<&-
}

load() { # addr spec clients seconds
    taskset -c 0 "$LOAD" --addr "$1" --workload "$2" --clients "$3" --duration "$4" >/dev/null
}

# 1. Cold: one stepped daemon, one trace set per phase (SIGUSR1 closes a set).
echo "==> stepping a cold daemon from exec to drain"
taskset -c 0 "$WORK/step" "$WORK/cold" -- "$ALTXD" --addr 127.0.0.1:0 --workers 2 --shards 1 \
    >"$WORK/cold.out" &
STEPPER=$!
PIDS+=("$STEPPER")
addr=$(listening "$WORK/cold.out")
sleep 1
kill -USR1 "$STEPPER"
for shape in "${SHAPES[@]}"; do
    read -r _ spec clients <<<"$shape"
    load "$addr" "$spec" "$clients" 1
    kill -USR1 "$STEPPER"
done
stats_and_drain "$addr"
wait "$STEPPER"

# 2. Warm: one daemon per shape at full speed, from exec to drain.
for shape in "${SHAPES[@]}"; do
    read -r name spec clients <<<"$shape"
    echo "==> tracing a daemon at speed under $spec ($clients client(s))"
    taskset -c 0 "$WORK/step" "$WORK/$name" -b "$WORK/entries" -- \
        "$ALTXD" --addr 127.0.0.1:0 --workers 2 --shards 1 >"$WORK/$name.out" &
    tracer=$!
    PIDS+=("$tracer")
    addr=$(listening "$WORK/$name.out")
    load "$addr" "$spec" "$clients" "$LOAD_S"
    stats_and_drain "$addr"
    wait "$tracer"
done

# 3. The benchmark's own traffic: it spawns each daemon through this
# wrapper, which traces it like the shapes above (and so names its
# trace after its pid).
printf '#!/bin/sh\nexec "%s" "%s-$$" -b "%s" -- "%s" "$@"\n' \
    "$PWD/$WORK/step" "$PWD/$WORK/bench" "$PWD/$WORK/entries" "$PWD/$ALTXD" >"$WORK/altxd"
chmod +x "$WORK/altxd"
for wl in "${BENCH_WORKLOADS[@]}"; do
    echo "==> tracing every daemon of benchmark/run.sh --workload $wl"
    bash benchmark/run.sh --workload "$wl" --seed 1 --seconds 12 --trace 0 --altxd "$PWD/$WORK/altxd" \
        >"$WORK/bench-$wl.out" 2>&1 || {
        echo "hot_text.sh: benchmark/run.sh --workload $wl failed (see $WORK/bench-$wl.out)" >&2
        exit 1
    }
    sort -n -u "$WORK"/bench-[0-9]*.0 >"$WORK/bench-$wl"
    rm "$WORK"/bench-[0-9]*.0
done

SETS=("start-up:$WORK/cold.0")
for i in "${!SHAPES[@]}"; do
    read -r name _ <<<"${SHAPES[$i]}"
    SETS+=("$name, cold:$WORK/cold.$((i + 1))" "$name, at speed:$WORK/$name.0")
done
SETS+=("STATS and drain:$WORK/cold.$((${#SHAPES[@]} + 1))")
for wl in "${BENCH_WORKLOADS[@]}"; do
    SETS+=("benchmark $wl:$WORK/bench-$wl")
done
LISTED=$WORK/previous.order

# 4. Addresses to functions, and the list.
printf '%s\n' "${SETS[@]}" | awk -v work="$WORK" -v order="$WORK/order" -v listed_file="$LISTED" '
    BEGIN {
        while ((getline name < listed_file) > 0) listed[name] = 1
        n = 0
        while ((getline line < (work "/functions")) > 0) {
            split(line, f, " ")
            if (n && f[1] == start[n]) {
                names[n] = names[n] "\n" f[3]; known[n] = known[n] || (f[3] in listed)
                if (f[1] + f[2] > end[n]) end[n] = f[1] + f[2]
                continue
            }
            if (n && (end[n] == start[n] || end[n] > f[1])) end[n] = f[1]
            start[++n] = f[1]; end[n] = f[1] + f[2]; names[n] = f[3]; known[n] = f[3] in listed
        }
        printf "%-24s %9s %7s %6s %9s\n", "trace", "functions", "pages", "new", "unlisted"
    }
    {
        label = substr($0, 1, index($0, ":") - 1)
        file = substr($0, index($0, ":") + 1)
        j = 1; fns = 0; added = 0; unlisted = 0; split("", pages)
        while ((getline off < file) > 0) {
            off += 0
            while (j <= n && end[j] <= off) j++
            if (j > n || start[j] > off || hit[label, j]++) continue
            for (p = int(start[j] / 4096); p <= int((end[j] - 1) / 4096) || p == int(start[j] / 4096); p++) pages[p] = 1
            fns++
            if (!ran[j]++) added++
            if (!known[j]) unlisted++
        }
        close(file)
        np = 0; for (p in pages) np++
        printf "%-24s %9d %7d %6d %9d\n", label, fns, np, added, unlisted
    }
    END { for (j = 1; j <= n; j++) if (ran[j]) print names[j] > order }'
if $CHECK; then
    echo "==> $ORDER left as it is ($(wc -l <"$ORDER") names); traced $ALTXD as shipped"
    exit 0
fi
awk '!seen[$0]++' "$WORK/order" >"$ORDER"
cargo build --release --offline --locked -p altx-serve --bin altxd
echo "==> $ORDER: $(wc -l <"$ORDER") names; $ALTXD relinked with them"
