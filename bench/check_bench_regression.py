#!/usr/bin/env python3
"""Generic CI gate over a BENCH_*.json artifact.

Usage: check_bench_regression.py <BENCH_json> <baseline_json>

Generalises the original GEMM-only gate: the committed baseline file
declares a list of checks, each resolving a value out of the bench JSON
by path and comparing it against a floor or a boolean verdict. One script
gates every system bench (GEMM, serving, SLO, planner, quantization) so new benches
add a baseline file, not a new gate script.

Baseline schema:

  {
    "bench": "serving_throughput",       // must match the artifact's "bench"
    "note": "free-form provenance",
    "checks": [
      {"name": "batched wins",
       "path": "batched_beats_serial", "expect_true": true},
      {"name": "batched throughput",
       "path": "modes[name=serve-batched].img_per_s",
       "min": 800.0, "allowed_regression": 0.20},
      {"name": "512^3 GFLOP/s",
       "path": "shapes[name=square-512].blocked_simd_gflops",
       "min_by": {"path": "kernel",
                  "values": {"avx2": 14.0, "neon": 7.0, "scalar": 6.0}},
       "allowed_regression": 0.20}
    ]
  }

Path syntax: dot-separated keys into nested objects; a `list[key=value]`
segment selects the first element of `list` whose `key` stringifies to
`value`. A path that does not resolve fails the check (the gated
reference point was dropped from the bench).

Check kinds:
  expect_true  the resolved value must be truthy.
  min          value >= min * (1 - allowed_regression)   [default 0.0].
  min_by       like min, but the floor is chosen by the value found at
               min_by.path (e.g. per compiled micro-kernel). An unknown
               selector value warns and skips instead of failing, so
               exotic build configs don't break CI.
  max          value <= max * (1 + allowed_regression): a ceiling for
               costs (e.g. the memory planner's peak slab bytes) where
               growth, not shrinkage, is the regression.

Exit status: 0 all checks pass, 1 any check fails, 2 usage/schema error.
"""
import json
import re
import sys

_SEGMENT = re.compile(r"^([^\[\]]+)(?:\[([^=\]]+)=([^\]]+)\])?$")


def resolve(doc, path):
    """Walk `path` into `doc`; raises KeyError with context on a miss."""
    cur = doc
    for segment in path.split("."):
        match = _SEGMENT.match(segment)
        if match is None:
            raise KeyError(f"malformed path segment '{segment}'")
        key, sel_key, sel_value = match.groups()
        if not isinstance(cur, dict) or key not in cur:
            raise KeyError(f"'{key}' not found resolving '{path}'")
        cur = cur[key]
        if sel_key is not None:
            if not isinstance(cur, list):
                raise KeyError(f"'{key}' is not a list resolving '{path}'")
            for element in cur:
                if isinstance(element, dict) and \
                        str(element.get(sel_key)) == sel_value:
                    cur = element
                    break
            else:
                raise KeyError(
                    f"no element with {sel_key}={sel_value} in '{key}'")
    return cur


def run_check(bench, check):
    """Returns (ok, skipped, message) for one baseline check."""
    name = check.get("name", check.get("path", "?"))
    try:
        got = resolve(bench, check["path"])
    except KeyError as err:
        return False, False, f"FAIL: {name}: {err}"

    if check.get("expect_true") is not None:
        want = check["expect_true"]
        ok = bool(got) == bool(want)
        return ok, False, (f"{'OK' if ok else 'FAIL'}: {name}: "
                           f"{check['path']} = {got} (expected {want})")

    if "max" in check:
        base = check["max"]
        ceiling = base * (1.0 + check.get("allowed_regression", 0.0))
        ok = got <= ceiling
        return ok, False, (f"{'OK' if ok else 'FAIL'}: {name}: "
                           f"{check['path']} = {got:.2f} "
                           f"(baseline {base:.2f}, ceiling {ceiling:.2f})")

    if "min_by" in check:
        selector = check["min_by"]
        try:
            key = resolve(bench, selector["path"])
        except KeyError as err:
            return False, False, f"FAIL: {name}: {err}"
        base = selector["values"].get(str(key))
        if base is None:
            return True, True, (f"WARNING: {name}: no committed floor for "
                                f"{selector['path']}='{key}'; skipping")
    elif "min" in check:
        base = check["min"]
    else:
        return False, False, (f"FAIL: {name}: baseline check has no "
                              "expect_true/min/min_by/max")

    floor = base * (1.0 - check.get("allowed_regression", 0.0))
    ok = got >= floor
    return ok, False, (f"{'OK' if ok else 'FAIL'}: {name}: "
                       f"{check['path']} = {got:.2f} "
                       f"(baseline {base:.2f}, floor {floor:.2f})")


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    expected = baseline.get("bench")
    if expected is not None and bench.get("bench") != expected:
        print(f"FAIL: artifact is '{bench.get('bench')}', baseline gates "
              f"'{expected}' — wrong file pairing")
        return 1

    checks = baseline.get("checks", [])
    if not checks:
        print("FAIL: baseline declares no checks")
        return 2

    failed = 0
    for check in checks:
        ok, _, message = run_check(bench, check)
        print(message)
        if not ok:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
