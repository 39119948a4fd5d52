#!/usr/bin/env bash
# Smoke test of the benchmark. Every workload runs at toy size, untraced
# twice and traced once, and must:
#   - end with a JSON line whose metrics are exactly the ones BENCHMARK.json
#     names for that mode, each with its unit;
#   - attempt at least one op and fail none (failed_frac = 0);
#   - give the same op-list digest, edits_mean and failed count on both
#     untraced runs of one seed.
# Run from the repository root:  bash lopbench/smoke.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_work/smoke"
rm -rf "$out"
mkdir -p "$out"
cd "$root"

for w in oneshot service churn; do
    for run in a:0 b:0 t:1; do
        tag="${run%%:*}"
        trace="${run##*:}"
        bash lopbench/run.sh --workload "$w" --seed 7 --seconds 2 --trace "$trace" --scale toy \
            > "$out/$w-$tag.out" 2> "$out/$w-$tag.err"
    done
done

python3 - "$out" <<'EOF'
import json, pathlib, re, sys

out = pathlib.Path(sys.argv[1])
spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
want = {
    "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
    "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
}
problems = []

def result(w, tag):
    lines = (out / f"{w}-{tag}.out").read_text().strip().splitlines()
    return json.loads(lines[-1])

for w in ("oneshot", "service", "churn"):
    for tag, trace in (("a", "0"), ("b", "0"), ("t", "1")):
        r = result(w, tag)
        if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{w}-{tag}: keys {sorted(r)}")
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            problems.append(f"{w}-{tag}: correct={r['correct']} failed={r['failed']} attempted={r['attempted']}")
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != want[trace]:
            problems.append(f"{w}-{tag}: metrics differ from BENCHMARK.json: {set(got) ^ set(want[trace])}")
    digests = [re.findall(r"op-list digest (\w+)", (out / f"{w}-{t}.err").read_text()) for t in "ab"]
    a, b = result(w, "a"), result(w, "b")
    if not digests[0] or digests[0] != digests[1]:
        problems.append(f"{w}: op-list digests differ between runs of one seed: {digests}")
    if a["metrics"]["edits_mean"]["value"] != b["metrics"]["edits_mean"]["value"] or a["failed"] != b["failed"]:
        problems.append(f"{w}: edits_mean or failed differ between runs of one seed")
    print(f"{w}: ok" if not any(p.startswith(w) for p in problems) else f"{w}: FAILED")

for p in problems:
    print("  " + p)
sys.exit(1 if problems else 0)
EOF
