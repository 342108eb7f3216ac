#!/usr/bin/env bash
# The benchmark's acceptance check, automated: two full sets of runs of
# the same commit must agree on every end-to-end metric of every workload
# within the metric's own bound (from BENCHMARK.json), and a corrupted
# verifier must make the command fail.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S]
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out=benchmark/out
mkdir -p "$out"

for set in a b; do
    echo "== selfcheck: full run $set" >&2
    benchmark/run.sh "$@" > "$out/run.$set.log" 2>&1 || {
        tail -n 30 "$out/run.$set.log" >&2
        echo "selfcheck: full run $set failed" >&2
        exit 1
    }
    cp "$out/result.json" "$out/result.$set.json"
done

python3 - "$out/result.a.json" "$out/result.b.json" BENCHMARK.json <<'EOF'
import json, sys
a, b, spec = (json.load(open(p)) for p in sys.argv[1:4])
bad = 0
for wa, wb in zip(a["workloads"], b["workloads"]):
    assert wa["workload"] == wb["workload"]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va, vb = wa["end_to_end"][name]["value"], wb["end_to_end"][name]["value"]
        # How much worse the second set reads than the first, and the reverse.
        worse = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
        verdict = "ok" if abs(worse) <= bound else "OUTSIDE ITS BOUND"
        bad += verdict != "ok"
        print(f"{wa['workload']:9s} {name:15s} {va:12.4f} {vb:12.4f} {m['unit']:4s} "
              f"moved {worse:+.3f} (bound {bound}) {verdict}")
sys.exit(1 if bad else 0)
EOF

echo "== selfcheck: a corrupted verifier must fail the command" >&2
if benchmark/run.sh --workload cpu --seed 1 --seconds 3 --trace 0 --corrupt-verifier \
    > "$out/run.corrupt.log" 2>&1; then
    echo "selfcheck: the command passed with a corrupted verifier" >&2
    exit 1
fi
grep -q '"correct": false' "$out/run.corrupt.log" || {
    echo "selfcheck: the corrupted run failed for another reason:" >&2
    tail -n 5 "$out/run.corrupt.log" >&2
    exit 1
}
echo "selfcheck: passed" >&2
