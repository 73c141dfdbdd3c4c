#!/usr/bin/env bash
# Run N full sets of the untraced workloads, one seed per set, and print
# each metric's median and spread: the interquartile range as a share of
# the median, with the quartiles of statistics.quantiles(values, n=4).
# BENCHMARK.json's bounds are set from the end-to-end metrics' spreads; the
# report-only metrics (latencies, host probe) are summarised alongside.
#
# Usage: bench/e2e/spread.sh N [first-seed] [out.json]
#   seeds first-seed .. first-seed+N-1 (default 1); every value and the
#   summary go to out.json (default build-e2e/spread.json).
set -euo pipefail

n=${1:?usage: bench/e2e/spread.sh N [first-seed] [out.json]}
first=${2:-1}
root=$(cd "$(dirname "$0")/../.." && pwd)
out=${3:-$root/build-e2e/spread.json}
mkdir -p "$root/build-e2e"
lines="$root/build-e2e/spread-lines.jsonl"
: > "$lines"

workloads=$(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$root/BENCHMARK.json")
for ((seed = first; seed < first + n; seed++)); do
  for w in $workloads; do
    result=$(python3 "$root/bench/e2e/run.py" --workload "$w" --seed "$seed" --trace 0 | tail -n 1)
    # The run's full report carries the host probe readings.
    report=$(python3 -c 'import json,sys; print(json.dumps(json.load(open(sys.argv[1]))["report"]))' \
      "$root/build-e2e/e2e-$w-trace0.json")
    echo "{\"workload\": \"$w\", \"seed\": $seed, \"result\": $result, \"report\": $report}" >> "$lines"
    echo "$w seed $seed done" >&2
  done
done

python3 - "$lines" "$out" "$root/BENCHMARK.json" <<'EOF'
import json, statistics, sys
rows = [json.loads(l) for l in open(sys.argv[1])]
bounds = {m["name"]: m["bound"]
          for m in json.load(open(sys.argv[3]))["end_to_end"]}


def stats(metrics):
    out = {}
    for name, first in metrics[0].items():
        values = [m[name]["value"] for m in metrics]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        out[name] = {"median": med, "q1": q[0], "q3": q[2],
                     "spread": (q[2] - q[0]) / med if med else None,
                     "unit": first["unit"], "values": values}
    return out


summary = {}
for w in dict.fromkeys(r["workload"] for r in rows):
    mine = [r for r in rows if r["workload"] == w]
    s = summary[w] = {
        "failed": sum(r["result"]["failed"] for r in mine),
        "all_correct": all(r["result"]["correct"] for r in mine),
        "end_to_end": stats([r["result"]["metrics"] for r in mine]),
        "report": stats([r["report"] for r in mine])}
    print(f"{w}: {len(mine)} runs, failed {s['failed']}, "
          f"correct {s['all_correct']}")
    for section in ("end_to_end", "report"):
        for name, m in s[section].items():
            bound = f"  (bound {bounds[name]:.2f})" if name in bounds else ""
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {section[:6]} {name:30s} median {m['median']:12.6g} "
                  f"{m['unit']:6s} spread {spread}{bound}")
json.dump({"seeds": sorted({r["seed"] for r in rows}), "workloads": summary},
          open(sys.argv[2], "w"), indent=1)
print(f"wrote {sys.argv[2]}")
EOF
