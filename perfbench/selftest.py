#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py [--seconds S]

At a short run length (default 2 s), runs every workload named in
BENCHMARK.json untraced and traced at seed 42 and checks that:

  - each run exits 0 and ends with the JSON result line, with exactly
    the keys correct/attempted/failed/metrics, correct true, at least
    one attempt and no failure;
  - the untraced run emits exactly the end_to_end metrics and the
    traced run exactly the per_layer metrics of BENCHMARK.json, each a
    finite number with the unit BENCHMARK.json gives it;
  - the traced and untraced runs print identical deterministic
    fingerprints (the lines starting with "deterministic:");
  - in a directory holding only BENCHMARK.json and the benchmark's
    files, the benchmark exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(proc, expected, label, errors):
    """Validate one run's exit code and result line."""
    if proc.returncode != 0:
        errors.append("%s: exit %d\n%s" % (label, proc.returncode,
                                             proc.stderr[-2000:]))
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        errors.append("%s: last line is not JSON (%s)" % (label, e))
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (label, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (label, result["attempted"]))
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        errors.append("%s: metrics differ from BENCHMARK.json: "
                      "missing %s, extra %s" %
                      (label, sorted(set(expected) - set(metrics)),
                       sorted(set(metrics) - set(expected))))
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (label, name, value))
        if name in expected and m.get("unit") != expected[name]:
            errors.append("%s: %s unit %r, BENCHMARK.json says %r" %
                          (label, name, m.get("unit"), expected[name]))


def fingerprints(proc):
    return [l for l in proc.stdout.splitlines()
            if l.startswith("deterministic:")]


def check_bare_directory(errors):
    """Without the program's sources the benchmark must refuse."""
    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", "paper_fit", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        errors.append("bare directory: exit %d, stdout %r" %
                      (proc.returncode, proc.stdout[-200:]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", default="2")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        common = ["--workload", workload, "--seed", "42",
                  "--seconds", args.seconds]
        plain = run(common + ["--trace", "0"])
        check_result(plain, end_to_end, workload, errors)
        traced = run(common + ["--trace", "1"])
        check_result(traced, per_layer, workload + " traced", errors)
        if not fingerprints(plain) or \
                fingerprints(plain) != fingerprints(traced):
            errors.append("%s: deterministic outputs differ between the "
                          "traced and untraced runs:\n%s\n%s" %
                          (workload, fingerprints(plain),
                           fingerprints(traced)))
        print("selftest: %s checked" % workload, flush=True)
    check_bare_directory(errors)

    for e in errors:
        print("selftest: FAIL: " + e)
    print("selftest: %s" % ("ok" if not errors else
                            "%d failure(s)" % len(errors)))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
