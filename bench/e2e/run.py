#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One workload run (the form BENCHMARK.json's command takes):

    python3 bench/e2e/run.py --workload serve-tiny --seed 7 --seconds 30 --trace 0

builds bench/e2e into build-e2e/ (Release, as the tier-1 build), runs the
workload once and relays its output; the last line is the JSON result.

Everything at once:

    python3 bench/e2e/run.py [--seed N] [--seconds S] [--smoke] [--out PATH]

runs every workload untraced and traced, prints every metric by name with
its unit, and writes all of them to build-e2e/results.json (or --out).
Run from anywhere; paths resolve against the repository root.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "e2e_bench"
# A run must end within 180 s; stop a hung one before that.
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a wino source tree (no CMakeLists.txt / src)", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "e2e_bench", "-j",
           str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_one(workload, seed, seconds, trace, smoke, spec):
    """Run one workload; returns (exit code, stdout, full metrics dict)."""
    tag = f"{workload}-trace{trace}"
    # The binary writes this report (and a traced run's spans) beside itself.
    report = BUILD / f"e2e-{tag}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    report.unlink(missing_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{tag} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(f"{tag} printed no result line (exit {proc.returncode})")
    kind = "per_layer" if trace else "end_to_end"
    expected = [m["name"] for m in spec[kind]]
    if list(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"{tag} metrics differ from BENCHMARK.json {kind}: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    full = json.loads(report.read_text()) if report.is_file() else {}
    return proc.returncode, proc.stdout, full


def run_all(args, spec):
    seconds = args.seconds or spec["run_seconds"]
    results = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
               "workloads": {}}
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            code, out, full = run_one(name, args.seed, seconds, trace,
                                      args.smoke, spec)
            status = status or code
            runs[f"trace{trace}"] = full
            last = json.loads(out.rstrip("\n").split("\n")[-1])
            print(f"== {name} trace={trace}: correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']}")
            sections = ("end_to_end", "report") if trace == 0 else (
                "per_layer", "report")
            for section in sections:
                for metric, m in full.get(section, {}).items():
                    print(f"  {section[:10]:10s} {metric:36s} "
                          f"{m['value']:14.6g} {m['unit']}")
            if trace:
                for layer, ms in full.get("self_ms_by_layer", {}).items():
                    print(f"  self_ms    {layer:36s} {ms:14.6g} ms")
        results["workloads"][name] = runs
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="about 2 s per workload run")
    parser.add_argument("--out", help="results file of the all-workload run")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative", 2)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {names}", 2)
    build()
    if args.workload is None:
        sys.exit(run_all(args, spec))
    seconds = args.seconds or spec["run_seconds"]
    code, out, _ = run_one(args.workload, args.seed, seconds, args.trace,
                           args.smoke, spec)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
