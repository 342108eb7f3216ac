#!/usr/bin/env bash
# Regenerates the two files that lay out a release `altxd`
# (crates/serve/build.rs; docs/INTERNALS.md § Resident memory):
#   crates/serve/altxd.order  the functions it executes, which LLD places
#                             together at the start of its `.text`;
#   crates/serve/altxd.ld     a linker-script fragment that puts the
#                             read-only data it reads in `.rodata.hot`,
#                             right after the headers, moves
#                             `.gcc_except_table` behind the unwind tables
#                             and `.init`, `.fini` and `.iplt` (start-up,
#                             exit and the `memcpy` family's stubs) from
#                             the end of the text to its start.
#
#   bash scripts/hot_text.sh            trace, rewrite both files, relink
#   bash scripts/hot_text.sh --check    trace the shipped build, keep them
#
# Links altxd the way benchmark/run.sh builds it, but with an empty list
# and no `.rodata.hot` — instead each read-only input section starts a
# page of its own — builds the tracer scripts/hot_text_step.c with `cc`,
# then:
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
#      every function that ran: first those every benchmark workload ran,
#      then those three, two and one of them ran, then those only the
#      other traces ran, each group in the order the unordered link laid
#      them out (so the text every benchmark daemon runs is one span at
#      the start of the hot region, not spread among what only some run);
#      maps the read-only addresses to the input sections the link
#      map (`$OUT_DIR/altxd.map`) names and lists every one that was read,
#      smallest first; then relinks altxd with the new files.
# The runs of 2 and 3 also trace the image's first mapping (headers,
# relocations, `.rodata`, unwind tables: hot_text_step -r). The tracer
# makes it unreadable and records the first read of each page, which on
# the trace build's one-section pages names the input section. The
# kernel's reads are its blind spot: a syscall that reads its argument
# from the mapping gets EFAULT instead of a fault. The tracer catches
# that at the syscall's exit, records the page the argument points into,
# opens it and runs the syscall again, so a daemon that would otherwise
# fail on it (a `println!` of a literal) answers as it should; the
# benchmark runs of 3 verify every reply. A read the kernel makes
# through a pointer it found in memory stays blind. Under --check the
# shipped layout is traced, whose pages hold many sections: a page is
# counted once, by its first read, so an unlisted section read after a
# listed one on the page where `.rodata.hot` ends goes unseen.
# A shape is a workload at each of the deadlines the benchmark sends it
# with (0, 10 000, 20 000 ms); a function or section no trace uses is
# left cold in the image. Prints, per trace, the functions it ran, the
# distinct 4 kB text pages they span, how many of them no earlier trace
# ran, how many the list in the tree before the run (with --check, the
# shipped list) lacks, and for the read-only mapping the distinct pages
# read and how many read input sections the fragment before the run
# lacks (unwind tables always count: only a panic reads them). --check
# traces the build as linked, with the shipped files, and rewrites
# nothing: a non-zero `unlisted` or `ro unlisted` is code or data the
# daemon uses from outside the hot region. x86-64 Linux; about three
# minutes. Run it again after a change that adds, removes or renames
# functions on the daemon's paths, and after any edit to a crate whose
# constants it reads: rustc names anonymous constants by a hash that
# moves with the crate's code. The hot-region stage of scripts/ci.sh
# prints how many listed names the build still has, and fails when a
# loaded daemon's read-only mapping outgrows two windows.
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
LAYOUT=crates/serve/altxd.ld
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

# The layout fragment: `.rodata.hot` holds the input sections $1 lists,
# one pattern a line. `--trace` instead starts every input section of
# `.rodata` on a page of its own, and each kind of merged strings or
# constants (which LLD merges into one section per kind), so the first
# read of a page names the section it read.
write_layout() {
    {
        echo "/* Where LLD puts altxd's sections, made by scripts/hot_text.sh and"
        echo " * passed to LLD by crates/serve/build.rs: the data a daemon reads,"
        echo " * smallest input section first, right after the headers; the"
        echo " * exception tables, which only unwinding reads, after the unwind"
        echo " * tables; the code run at start-up and exit and the IFUNC stubs"
        echo " * before the text, whose hot region starts it, not after. */"
        if [ "$1" = --trace ]; then
            echo "SECTIONS {"
            echo "  .rodata.merged : {"
            for kind in str1.1 str1.2 str1.4 str1.8 str1.16 str1.32 str2.2 str4.4 str4.8 str4.16 \
                cst2 cst4 cst8 cst16 cst32; do
                echo "    *(.rodata.$kind .rodata.$kind.*) . = ALIGN(4096);"
            done
            echo "  }"
            echo "  .rodata : SUBALIGN(4096) { *(.rodata .rodata.*) }"
            echo "} INSERT BEFORE .eh_frame_hdr;"
        elif [ -s "$1" ]; then
            echo "SECTIONS {"
            echo "  .rodata.hot : {"
            sed 's/^/    /' "$1"
            echo "  }"
            echo "} INSERT BEFORE .rodata;"
        fi
        echo "SECTIONS {"
        echo "  .gcc_except_table : { *(.gcc_except_table .gcc_except_table.*) }"
        echo "} INSERT AFTER .eh_frame;"
        echo "SECTIONS {"
        echo "  .init : { KEEP(*(SORT_NONE(.init))) }"
        echo "  .fini : { KEEP(*(SORT_NONE(.fini))) }"
        echo "  .iplt : { *(.iplt) }"
        echo "} INSERT BEFORE .text;"
    } >"$LAYOUT"
}

# The trace is taken on the unordered layout, so the lists do not
# depend on the ones before them; those are put back if the run fails.
cp "$ORDER" "$WORK/previous.order"
cp "$LAYOUT" "$WORK/previous.ld"
if ! $CHECK; then
    : >"$ORDER"
    write_layout --trace
fi
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true
      $CHECK || [ -e "$WORK/done" ] || { cp "$WORK/previous.order" "$ORDER"; cp "$WORK/previous.ld" "$LAYOUT"; }' EXIT
cargo build --release --offline --locked -p altx-serve --bin altxd
cargo build --release --offline --locked -p altx-serve --bin altx-load
# Every function, by address: a function runs from its address to the
# next function's (or its own size, if less); aliases share one entry.
nm -n -S -t d --defined-only "$ALTXD" |
    awk 'NF == 4 && $3 ~ /^[tTwWi]$/ { print $1, $2, $4 } NF == 3 && $2 ~ /^[tTwWi]$/ { print $1, 0, $3 }' \
        >"$WORK/functions"
awk '{ print $1 }' "$WORK/functions" >"$WORK/entries"

# Every input section of the first (read-only) segment, by address, with
# its size, from the map of the link that made $ALTXD: an item runs from
# its address to the next one's, and is named by the pattern that would
# place it in `.rodata.hot` — `*(NAME)` for a section of its own (rustc's
# constants, jump tables and named statics), `*ARCHIVE:MEMBER(NAME)` for
# a C object's plain `.rodata`, `*(NAME NAME.*)` for merged strings and
# constants — or `headers` (the ELF and program headers, RELR) or
# `unwind SECTION`, which stay where they are.
MAP=$(ls -t target/release/build/altx-serve-*/out/altxd.map 2>/dev/null | head -n 1)
TEXT_AT=$(readelf -SW "$ALTXD" | sed -n 's/^ *\[ *[0-9]*\] *//p' |
    awk '$1 == ".text" { a = $3; s = $5; sub(/^0+/, "", a); sub(/^0+/, "", s); print a "+" s }')
[ -n "$MAP" ] && awk -v want="$TEXT_AT" '$5 == ".text" { found = $1 "+" $3 } END { exit found != want }' \
    "$MAP" || {
    echo "hot_text.sh: no link map of $ALTXD (does build.rs link it with LLD?)" >&2
    exit 1
}
RO_END=$(readelf -lW "$ALTXD" | awk '$1 == "LOAD" { print $6; exit }')
awk -v ro_end="$RO_END" '
    function hex(s,   i, n) {
        n = 0; s = tolower(s); sub(/^0x/, "", s)
        for (i = 1; i <= length(s); i++) n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    BEGIN { end = hex(ro_end); print 0, 0, "headers" }
    NR > 1 {
        name = substr($0, 50)
        if (name ~ /^[^ ]/) { out = name; next }
        if (name !~ /^        [^ ]/ || hex($1) == 0 || hex($1) >= end || hex($3) == 0) next
        sub(/^ +/, "", name)
        file = name; sub(/:\([^()]*\)$/, "", file)
        sec = substr(name, length(file) + 3); sub(/\)$/, "", sec)
        if (out == ".eh_frame_hdr" || out == ".eh_frame" || out == ".gcc_except_table") key = "unwind " out
        else if (out !~ /^\.rodata/) key = "headers"
        else if (file == "<internal>") key = "*(" sec " " sec ".*)"
        else if (sec != ".rodata") key = "*(" sec ")"
        else if (file ~ /\.a\(.*\)$/) {
            member = file; sub(/^.*\(/, "", member); sub(/\)$/, "", member)
            archive = file; sub(/\([^()]*\)$/, "", archive); sub(/^.*\//, "", archive)
            key = "*" archive ":" member "(" sec ")"
        } else { sub(/^.*\//, "", file); key = "*" file "(" sec ")" }
        print hex($1), hex($3), key
    }' "$MAP" | sort -n -s -k 1,1 >"$WORK/ro_items"

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
    taskset -c 0 "$WORK/step" "$WORK/$name" -b "$WORK/entries" -r -- \
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
printf '#!/bin/sh\nexec "%s" "%s-$$" -b "%s" -r -- "%s" "$@"\n' \
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
    sort -n -u "$WORK"/bench-[0-9]*.0.ro >"$WORK/bench-$wl.ro"
    rm "$WORK"/bench-[0-9]*.0 "$WORK"/bench-[0-9]*.0.ro
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

# 4. Addresses to functions and to read-only input sections, and the
# lists. A trace without a read-only record (the stepped one) shows `-`.
printf '%s\n' "${SETS[@]}" | awk -v work="$WORK" -v order="$WORK/order" -v hot="$WORK/rodata.hot" '
    BEGIN {
        while ((getline name < (work "/previous.order")) > 0) listed[name] = 1
        while ((getline line < (work "/previous.ld")) > 0) if (line ~ /^    \*/) { sub(/^ +/, "", line); ro_listed[line] = 1 }
        nr = 0
        while ((getline line < (work "/ro_items")) > 0) {
            split(line, f, " ")
            ro_start[++nr] = f[1] + 0; ro_size[ro_key[nr] = substr(line, length(f[1] f[2]) + 3)] += f[2]
        }
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
        printf "%-24s %9s %7s %6s %9s %9s %12s\n", "trace", "functions", "pages", "new", "unlisted", "ro pages", "ro unlisted"
    }
    {
        label = substr($0, 1, index($0, ":") - 1)
        file = substr($0, index($0, ":") + 1)
        bench = label ~ /^benchmark /
        nbench += bench
        j = 1; fns = 0; added = 0; unlisted = 0; split("", pages)
        while ((getline off < file) > 0) {
            off += 0
            while (j <= n && end[j] <= off) j++
            if (j > n || start[j] > off || hit[label, j]++) continue
            for (p = int(start[j] / 4096); p <= int((end[j] - 1) / 4096) || p == int(start[j] / 4096); p++) pages[p] = 1
            fns++
            runs[j] += bench
            if (!ran[j]++) added++
            if (!known[j]) unlisted++
        }
        close(file)
        np = 0; for (p in pages) np++
        ro_pages = "-"; ro_unlisted = "-"
        if ((getline off < (file ".ro")) > 0) {
            j = 1; ro_unlisted = 0; split("", pages)
            do {
                off += 0; pages[int(off / 4096)] = 1
                while (j < nr && ro_start[j + 1] <= off) j++
                key = ro_key[j]
                if (key == "headers" || read[label, key]++) continue
                if (!(key in ro_listed)) ro_unlisted++
                if (key !~ /^unwind /) hot_size[key] = ro_size[key]
            } while ((getline off < (file ".ro")) > 0)
            close(file ".ro")
            ro_pages = 0; for (p in pages) ro_pages++
        }
        printf "%-24s %9d %7d %6d %9d %9s %12s\n", label, fns, np, added, unlisted, ro_pages, ro_unlisted
    }
    END {
        # What more benchmark workloads run first: the functions every
        # one of them ran, then those three, two or one ran, then those
        # only the other traces ran — each group in link order.
        for (k = nbench; k >= 0; k--) for (j = 1; j <= n; j++) if (ran[j] && runs[j] == k) print names[j] > order
        for (key in hot_size) print hot_size[key], key > hot
    }'
if $CHECK; then
    echo "==> $ORDER ($(wc -l <"$ORDER") names) and $LAYOUT left as they are; traced $ALTXD as shipped"
    exit 0
fi
awk '!seen[$0]++' "$WORK/order" >"$ORDER"
touch "$WORK/rodata.hot"
sort -k 1,1n -k 2 "$WORK/rodata.hot" | cut -d ' ' -f 2- >"$WORK/rodata.hot.sorted"
write_layout "$WORK/rodata.hot.sorted"
touch "$WORK/done"
cargo build --release --offline --locked -p altx-serve --bin altxd
echo "==> $ORDER: $(wc -l <"$ORDER") names; $LAYOUT: $(wc -l <"$WORK/rodata.hot.sorted") read-only input sections" \
    "($(awk '{ kb += $1 } END { printf "%.1f", kb / 1024 }' "$WORK/rodata.hot") kB); $ALTXD relinked with them"
