#!/usr/bin/env bash
# The full offline CI gate: build, test, format, lint, the seeded and
# repeated concurrency checks, and the benchmark's four workloads run for
# the correctness of their replies. No network beyond loopback. Nothing
# here compares a latency or a throughput: a number the parent commit can
# fail is noise, and gains and regressions are judged in alternating
# parent/change pairs of `benchmark/run.sh` (see benchmark/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> cargo build --release (tier-1) + workspace bins"
cargo build --release
cargo build --release --workspace
ALTXD=./target/release/altxd

# The workspace links its Linux/glibc executables as static PIEs
# (.cargo/config.toml): no dynamic loader before `main`, ASLR, full
# RELRO and a non-executable stack kept. An exported RUSTFLAGS replaces
# the config's flags rather than adding to them, so a dynamic altxd is a
# build that quietly lost its start-up time: it fails here, by property.
echo "==> the release altxd is one static PIE (no INTERP, type DYN, BIND_NOW, GNU_RELRO, stack not executable)"
ELF_HEADERS=$(readelf -hlW "$ALTXD")
ELF_DYNAMIC=$(readelf -dW "$ALTXD")
MISSING=()
grep -qE '^ +INTERP ' <<<"$ELF_HEADERS" && MISSING+=("no INTERP program header (it names a dynamic loader)")
grep -qE '^ +Type: +DYN ' <<<"$ELF_HEADERS" || MISSING+=("ELF type DYN (position-independent)")
grep -qE '\(FLAGS\) .*BIND_NOW|\(FLAGS_1\) .*NOW' <<<"$ELF_DYNAMIC" || MISSING+=("BIND_NOW")
grep -qE '^ +GNU_RELRO ' <<<"$ELF_HEADERS" || MISSING+=("GNU_RELRO")
[ "$(awk '$1 == "GNU_STACK" { print $7 }' <<<"$ELF_HEADERS")" = "RW" ] ||
    MISSING+=("a GNU_STACK header without the execute flag")
[ ${#MISSING[@]} -eq 0 ] || {
    echo "static PIE check: $ALTXD lacks:" >&2
    printf '  - %s\n' "${MISSING[@]}" >&2
    echo "(is RUSTFLAGS exported? it replaces the flags of .cargo/config.toml)" >&2
    exit 1
}

# Release builds are one whole-program unit (`lto = "fat"` in the root
# Cargo.toml): every crate, std included, is optimised and linked as one
# module, so no function Rust defines is left global — the global text
# symbols left are the C library's. A build that lost the setting keeps
# each crate's public functions global: it fails here, by property.
echo "==> the release altxd is one whole-program image (no global Rust text symbol)"
GLOBAL_RUST=$(nm "$ALTXD" | awk '$2 == "T" && $3 ~ /^(_ZN|_R)/ { print $3 }')
[ -z "$GLOBAL_RUST" ] || {
    echo "whole-program check: $ALTXD has $(wc -l <<<"$GLOBAL_RUST") global Rust text symbols, e.g.:" >&2
    head -n 3 <<<"$GLOBAL_RUST" | sed 's/^/  /' >&2
    echo "(is CARGO_PROFILE_RELEASE_LTO exported, or profile.release overridden with --config? either undoes lto = \"fat\")" >&2
    exit 1
}

# A daemon's image is resident by 64 kB fault-around windows, so what it
# costs is how many windows the code and constants it uses are spread
# over. LLD links `altxd` with every function start-up and the
# benchmark's request shapes execute first in `.text` (crates/serve/
# build.rs, in the order of crates/serve/altxd.order), the read-only
# data they read first in the read-only segment (`.rodata.hot`, placed
# by crates/serve/altxd.ld) and its relative relocations packed as RELR.
# A stale list or a lost link flag scatters the hot code or data again:
# it fails here, by property, with the resident text and read-only
# mapping of a daemon under load. The exception tables move behind the
# unwind tables, so the program header the unwinder finds them by must
# still point at `.eh_frame_hdr`: a panic is contained only through it.
HOT_RO_MAX_KB=128
echo "==> the release altxd runs from its hot region (LLD, RELR, GNU_EH_FRAME at .eh_frame_hdr, ≥ 90 % of the list resolves, ≤ 768 kB of text and ≤ $HOT_RO_MAX_KB kB of the read-only mapping resident under a trivial load)"
MISSING=()
readelf -p .comment "$ALTXD" | grep -q 'Linker: LLD' || MISSING+=("a .comment naming LLD (the linker the order is given to)")
RELR_BYTES=$(size -A "$ALTXD" | awk '$1 == ".relr.dyn" { print $2 }')
RELA_BYTES=$(size -A "$ALTXD" | awk '$1 == ".rela.dyn" { print $2 }')
[ -n "$RELR_BYTES" ] || MISSING+=("a .relr.dyn section (-z pack-relative-relocs)")
[ "${RELA_BYTES:-0}" -lt 1024 ] || MISSING+=("a .rela.dyn under 1 kB (it has $RELA_BYTES B)")
# Address and size of .eh_frame_hdr, and of the GNU_EH_FRAME header, as
# hex without a prefix or leading zeros.
EH_HDR=$(readelf -SW "$ALTXD" | sed -n 's/^ *\[ *[0-9]*\] *//p' |
    awk '$1 == ".eh_frame_hdr" { a = $3; s = $5; sub(/^0+/, "", a); sub(/^0+/, "", s); print a, s }')
EH_PHDR=$(readelf -lW "$ALTXD" |
    awk '$1 == "GNU_EH_FRAME" { a = $3; s = $5; sub(/^0x0*/, "", a); sub(/^0x0*/, "", s); print a, s }')
[ -n "$EH_HDR" ] && [ "$EH_PHDR" = "$EH_HDR" ] ||
    MISSING+=("a GNU_EH_FRAME program header at .eh_frame_hdr (header: ${EH_PHDR:-none}; section: ${EH_HDR:-none})")
HOT_OUT=$(mktemp /tmp/altx-hot.XXXXXX.out)
taskset -c 0 "$ALTXD" --addr 127.0.0.1:0 --workers 2 --shards 1 >"$HOT_OUT" &
HOT_PID=$!
HOT_ADDR=
for _ in $(seq 1 100); do
    HOT_ADDR=$(sed -n 's/^altxd listening on \([^ ]*\) .*/\1/p' "$HOT_OUT")
    [ -z "$HOT_ADDR" ] || break
    sleep 0.05
done
[ -n "$HOT_ADDR" ] && taskset -c 0 ./target/release/altx-load --addr "$HOT_ADDR" --workload trivial \
    --clients 1 --duration 2 >/dev/null || MISSING+=("a daemon that starts and answers a trivial load")
# Resident kB of the daemon's text (r-xp) and of its first, read-only
# mapping (offset 0, r--p: headers, relocations, .rodata, unwind tables).
if HOT_KB=$(awk -v exe="$(readlink "/proc/$HOT_PID/exe" 2>/dev/null)" '
    /^[0-9a-f]+-[0-9a-f]+ / { text = $2 == "r-xp" && $6 == exe; ro = $2 == "r--p" && $3 == "00000000" && $6 == exe; next }
    text && $1 == "Rss:" { text_kb += $2 }
    ro && $1 == "Rss:" { ro_kb += $2 }
    END { print text_kb + 0, ro_kb + 0 }' "/proc/$HOT_PID/smaps" 2>/dev/null); then
    read -r HOT_TEXT_KB HOT_RO_KB <<<"$HOT_KB"
    [ "$HOT_TEXT_KB" -le 768 ] || MISSING+=("at most 768 kB of its text resident under load (it had $HOT_TEXT_KB kB)")
    [ "$HOT_RO_KB" -le "$HOT_RO_MAX_KB" ] ||
        MISSING+=("at most $HOT_RO_MAX_KB kB of its read-only mapping resident under load (it had $HOT_RO_KB kB)")
else
    MISSING+=("a daemon still running after the load, to read its resident text from")
fi
kill "$HOT_PID" 2>/dev/null || true
wait "$HOT_PID" 2>/dev/null || true
rm -f "$HOT_OUT"
# A listed name the build no longer has is a function left cold: a
# toolchain or crate change that renames them all shows here before it
# costs memory.
HOT_LISTED=$(wc -l <crates/serve/altxd.order)
HOT_RESOLVED=$(nm "$ALTXD" | awk 'NR == FNR { listed[$1]; next } ($3 in listed) && !seen[$3]++ { n++ } END { print n + 0 }' \
    crates/serve/altxd.order -)
[ $((HOT_RESOLVED * 10)) -ge $((HOT_LISTED * 9)) ] ||
    MISSING+=("at least 90 % of the $HOT_LISTED names of crates/serve/altxd.order (it has $HOT_RESOLVED)")
[ ${#MISSING[@]} -eq 0 ] || {
    echo "hot region check: $ALTXD lacks:" >&2
    printf '  - %s\n' "${MISSING[@]}" >&2
    echo "(are the hot lists stale? run scripts/hot_text.sh and relink)" >&2
    exit 1
}

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Every test above runs the dev profile. A panicking alternative is
# caught where it ran (`run_contained`), and in the profile that ships
# the unwinder walks frames fat LTO inlined across crates, into static
# glibc's unwinder: the crew's containment suite and the daemon's chaos
# soak run once more in the release profile.
echo "==> containment in the release profile: race_crew and chaos_soak under --release"
cargo test --release -q -p altx --test race_crew
cargo test --release -q -p altx-serve --test chaos_soak

echo "==> cargo fmt --check"
cargo fmt --check

# --all-targets: the seeded properties live in `mod tests` beside the
# cores they check, and are linted with them.
echo "==> cargo clippy --all-targets -D warnings (core, cluster and solver crates: altx, serve, consensus, cluster, prolog)"
cargo clippy --offline -p altx -p altx-serve -p altx-consensus -p altx-cluster -p altx-prolog --all-targets -- -D warnings

# `unsafe` lives in one corner of one crate — the reactor's `sys`
# module: ppoll, the SO_REUSEPORT bind and the timer-slack prctl — and
# every other crate forbids it. Among the tests, one binary may use it:
# the prolog solver's counting `#[global_allocator]`, which forwards
# every call to `System`. A binding that lands anywhere else fails here,
# with the list.
echo "==> unsafe audit: the word appears under crates/*/{src,tests} in reactor.rs and alloc_bounds.rs only"
UNSAFE_FILES=$(grep -rlw unsafe crates/*/src crates/*/tests | sort | xargs)
[ "$UNSAFE_FILES" = "crates/prolog/tests/alloc_bounds.rs crates/serve/src/reactor.rs" ] || {
    echo "unsafe audit: files containing \`unsafe\`: $UNSAFE_FILES" >&2
    exit 1
}

# The race registry's core is a pure step(event, now) -> actions
# machine, so the interleaving is a seed: 2 500 seeded schedules of
# everything that can happen to a distributed race, judged by the
# actions alone. A failure prints the altx_check seed that replays it.
echo "==> race-registry schedule property (2500 seeded interleavings, virtual time)"
cargo test -q -p altx-serve --lib remote::tests::any_schedule_posts_exactly_one_admissible_reply

# The worker pool's run queue is a pure value too — admission, EDF /
# lane / aging order, a push starting a slot while fewer than `workers`
# run, a running slot leaving only when nothing is queued — so its
# interleavings are seeds as well: 2 500 schedules of pushes, slot
# starts, looks, leaves, a close and a drain, checked against a model
# that knows nothing of heaps (every slot hands out the entry the order
# names; while an entry waits, every slot runs).
echo "==> run-queue schedule property (2500 seeded schedules, virtual time, no threads)"
cargo test -q -p altx-serve --lib pool::tests::any_schedule_runs_every_admitted_entry_once

# The peer link is a pure value as well — dial, backoff, the in-order
# correlation FIFO, park and replay, heartbeat, health and the
# silent-link reset, all behind step(event, now) -> actions — so the
# wire's interleavings are seeds too: 2 500 schedules of commands, dial
# outcomes, replies, hang-ups, ticks and send- and recv-side faults
# against model peers running the real frame decoder. A failure prints
# the altx_check seed that replays it.
echo "==> peer-link schedule property (2500 seeded schedules, virtual time, no sockets)"
cargo test -q -p altx-serve --lib link::tests::any_schedule_keeps_every_link_rule

# A race in flight is a value moved to whoever decides it, and the one
# way it reaches a connection is the write half's slot-fill rule: 2 500
# seeded deals of answers, worker losses, sheds from the reactor's copy
# of the slots and connection closes to real threads over loopback
# sockets — every slot filled once, in request order, nothing after
# close. A failure prints the altx_check seed of its deal.
echo "==> race-in-flight property (2500 seeded deals of answer / lose / shed / close to real threads)"
cargo test -q -p altx-serve --lib reactor::tests::any_order_of_answer_shed_loss_and_close_fills_each_slot_once

# Elimination is a wake-up: whatever the order and spacing of a body
# going to sleep on its token and the decision cancelling it, the
# sleeper must not outlive the cancel. 600 seeded orderings on real
# threads; a lost wake-up prints the altx_check seed of its schedule.
echo "==> elimination wake-up property (600 seeded sleeper/canceller orderings)"
cargo test -q -p altx --lib cancel::tests::no_schedule_loses_the_wake_up

# The quickstart runs one block in order, as Scheme B's seeded random
# picks (a plan that runs one alternative alone) and as Scheme C's race,
# and asserts that all of them agree on the observable result.
echo "==> quickstart example: the ordered engine and the racing engine's plans agree"
cargo run --release -q --example quickstart >/dev/null

# E10 runs on the same VoteSlot/Tally the daemon commits with, and E8's
# branch steps come from the solver the `prolog` workload runs: their
# committed output pins both byte for byte (E8's 80 000 row is where
# `max_depth` cuts a search).
committed_block() {
    awk -v name="  $1" '$0 == name { found = 1; getline; next }
                        found && /^=====/ { exit }
                        found' experiments_output.txt | sed '$d'
}
for exp in exp_consensus:E10 exp_prolog_or:E8; do
    echo "==> ${exp%:*} vs the committed ${exp#*:} block of experiments_output.txt"
    cargo build --release -q -p altx-bench --bin "${exp%:*}"
    diff <(committed_block "${exp%:*}") <("./target/release/${exp%:*}") || {
        echo "${exp%:*} no longer prints the committed ${exp#*:} block" >&2
        exit 1
    }
done

# The engine's claim protocol, the two suites that used to assert a
# particular winner of a nondeterministic race, the reply path —
# replies are written by whichever worker finishes the race, under the
# connection's write-half lock (its seeded delivery-schedule property,
# the race-in-flight property on real threads, and the live reactor and
# loopback suites) — and the worker pool on
# real threads (its unit tests, EDF / aging order, the drain
# racing submitters) — and the link core's unit tests with them: gated
# as "0 failures in N", because a concurrency bug that fires one run in
# ten passes a single run nine times in ten. The favourite-first tests
# ride in the same binaries and assert counts, never a wall-clock bound:
# `--test race_crew` (a thousand lead-decided races on an empty crew
# spawn no racer; a lead that fails or panics costs no alternative) and
# `--test reactor` (`races favourite-first` and `races on shard` equal
# what the rule said before each request). So do the led-wait tests:
# `cancel::` (under a forced lead no `sleep` returns `true` before its
# time, a cancel during the awake tail ends it while the canceller holds
# the lock, a deadline is never left early), `wake::` (the estimator as
# a value; a timed-out park against a notified one) and `--test
# race_crew` (no hedged body starts before its release under a forced
# lead; the decision still takes the unreleased ticket off the queue) —
# order and lower bounds only, never an upper wall-clock bound. So does
# `--test engine_equivalence`: every §4.2 scheme is a launch plan of the
# one racing engine, and random blocks under every plan kind at every
# width must stay admissible, whatever the thread timing.
REPEATS=25
REPEAT_LOG=$(mktemp /tmp/altx-repeat.XXXXXX.log)
echo "==> repeat stage: $REPEATS reruns of the cancel token and the timed-wait lead (led sleeps with them), race engine, crew (lead-decided races and led hedge releases with it), engine equivalence under every plan, write half, race in flight, pool, link core, ring, sched, edf, pool_drain, reactor (the favourite-first path with it), loopback and timer_slack suites"
for i in $(seq 1 "$REPEATS"); do
    {
        cargo test -q -p altx cancel:: &&
            cargo test -q -p altx wake:: &&
            cargo test -q -p altx engine::threaded &&
            cargo test -q -p altx --test race_crew &&
            cargo test -q -p altx --test engine_equivalence &&
            cargo test -q -p altx-serve --lib conn:: &&
            cargo test -q -p altx-serve --lib reactor:: &&
            cargo test -q -p altx-serve --lib pool:: &&
            cargo test -q -p altx-serve --lib link:: &&
            cargo test -q -p altx-serve --test ring --test sched --test edf --test pool_drain \
                --test reactor --test loopback --test timer_slack
    } >"$REPEAT_LOG" 2>&1 || {
        cat "$REPEAT_LOG" >&2
        rm -f "$REPEAT_LOG"
        echo "repeat stage: failure in rerun $i of $REPEATS" >&2
        exit 1
    }
done
rm -f "$REPEAT_LOG"
echo "repeat stage: 0 failures in $REPEATS"

# The workspace run above soaked the cluster under the suite's own seed;
# a second seed draws a different fault sequence at every wire site.
echo "==> cluster chaos soak, second seed (3 in-process nodes, wire faults + healing partition)"
ALTX_CHAOS_SEED=0xC0FFEE cargo test -q -p altx-serve --test cluster_chaos

# The benchmark's harness verifies every reply it reads and exits
# non-zero on a wrong one; that exit status is all this stage looks at.
for workload in overhead race cpu burst; do
    echo "==> load stage: benchmark/run.sh --workload $workload (replies verified; no number compared)"
    bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 3 --trace 0 >/dev/null
done

# The benchmark starts altxd with three flags; this keeps a caller for
# the parser of all the others, and for its refusal of an unknown one,
# of every removed one (refused, never silently ignored), of a pool with
# no workers and of no shards.
echo "==> altxd flag smoke: every flag of the --help line, then an unknown one, the removed ones, --workers 0 and --shards 0"
FLAGS=(--addr 127.0.0.1:0 --workers 2 --shards 2 --hedge --peer 127.0.0.1:1
    --advertise 127.0.0.1:9 --lanes 'rt:trivial;batch:sleep' --admission)
for flag in $("$ALTXD" --help | grep -o -- '--[a-z-]*'); do
    case " ${FLAGS[*]} " in
        *" $flag "*) ;;
        *)
            echo "flag smoke: altxd --help lists $flag, which this stage does not pass" >&2
            exit 1
            ;;
    esac
done
# Started with every flag, then drained the way any client would: a
# STATS frame and a SHUTDOWN frame on one connection (a frame is a
# 32-bit big-endian length and the body; the opcodes are 0x02 and 0x04).
SMOKE_OUT=$(mktemp /tmp/altx-flags.XXXXXX.out)
"$ALTXD" "${FLAGS[@]}" >"$SMOKE_OUT" &
SMOKE_PID=$!
SMOKE_ADDR=
for _ in $(seq 1 100); do
    SMOKE_ADDR=$(sed -n 's/^altxd listening on \([^ ]*\) .*/\1/p' "$SMOKE_OUT")
    [ -z "$SMOKE_ADDR" ] || break
    sleep 0.05
done
[ -n "$SMOKE_ADDR" ] || {
    echo "flag smoke: altxd with every flag set did not start" >&2
    kill "$SMOKE_PID" 2>/dev/null || true
    exit 1
}
exec 3<>"/dev/tcp/${SMOKE_ADDR%:*}/${SMOKE_ADDR##*:}"
printf '\0\0\0\1\2\0\0\0\1\4' >&3
cat <&3 >/dev/null
exec 3<&-
status=0
wait "$SMOKE_PID" || status=$?
[ "$status" -eq 0 ] && grep -q '^altxd: drained, bye$' "$SMOKE_OUT" || {
    echo "flag smoke: altxd with every flag set did not serve a SHUTDOWN and drain" >&2
    exit 1
}
rm -f "$SMOKE_OUT"
REMOVED=(--queue --ring-slots --ring-slot-bytes --duration --hedge-min-samples
    --hedge-explore-every --peer-explore-every --peer-heartbeat-ms
    --peer-suspect-ms --lane-aging-ms --spin-us)
for bad in '--no-such-flag' '--pin' '--steal' '--batch-window-us 500' "${REMOVED[@]/%/ 1}" '--workers 0' '--shards 0'; do
    read -r -a argv <<<"$bad"
    status=0
    "$ALTXD" "${argv[@]}" >/dev/null 2>&1 || status=$?
    [ "$status" -eq 2 ] || {
        echo "flag smoke: altxd $bad exited $status, want 2" >&2
        exit 1
    }
done

# Not gates (but the idle-thread count): the sizes ROADMAP aim 2 tracks, printed by the one command
# every CHANGES.md entry quotes them from, and the size of the
# executable a fresh daemon execs. Non-test lines stop at a file's
# first `#[cfg(test)]` — the in-file property suites are meant to grow.
non_test_lines() {
    find "$1" -name '*.rs' -exec awk 'FNR == 1 { skip = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        !skip { n++ }
        END { print n }' {} +
}
# The threads an idle daemon runs, counted once it is listening (a
# thread it started would name itself as it runs, hence the settling
# pause): its shards and nothing else — the pool's slots run on the race
# crew, which an idle daemon has not called on. A gate.
IDLE_OUT=$(mktemp /tmp/altx-idle.XXXXXX.out)
"$ALTXD" --addr 127.0.0.1:0 --workers 2 --shards 1 >"$IDLE_OUT" &
IDLE_PID=$!
for _ in $(seq 1 100); do
    grep -q '^altxd listening on' "$IDLE_OUT" && break
    sleep 0.05
done
sleep 0.2
IDLE_THREADS=$(find "/proc/$IDLE_PID/task" -mindepth 1 -maxdepth 1 2>/dev/null | wc -l)
kill "$IDLE_PID" 2>/dev/null || true
wait "$IDLE_PID" 2>/dev/null || true
rm -f "$IDLE_OUT"
[ "$IDLE_THREADS" -le 1 ] || {
    echo "an idle altxd --workers 2 --shards 1 runs $IDLE_THREADS threads, more than its 1 shard" >&2
    exit 1
}
SERVE_LINES=$(non_test_lines crates/serve/src)
CORE_LINES=$(non_test_lines crates/core/src)
ALTXD_FLAGS=$("$ALTXD" --help | grep -o -- '--[a-z-]*' | grep -cv -- '^--help$')
ALTXD_BYTES=$(stat -c %s "$ALTXD")
ALTXD_TEXT=$(size -A "$ALTXD" | awk '$1 == ".text" { print $2 }')
echo "==> size: crates/serve/src $SERVE_LINES non-test lines; crates/core/src $CORE_LINES non-test lines; altxd takes $ALTXD_FLAGS flags + --help; an idle altxd runs $IDLE_THREADS threads (--workers 2 --shards 1); the release altxd is $ALTXD_BYTES bytes, $ALTXD_TEXT of them .text; $HOT_RESOLVED of $HOT_LISTED hot symbols resolve; under a trivial load $HOT_TEXT_KB kB of its text and $HOT_RO_KB kB of its read-only mapping are resident"

echo "==> CI gate passed"
