#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a tiny scale.

Run from the repository root:

    python3 perfbench/selftest.py

It checks BENCHMARK.json against the benchmark contract, runs every workload
through perfbench/run.py with and without --trace at --scale 0.05, and checks
that each run's last line parses, is correct, and names exactly the metrics
BENCHMARK.json lists, each with its unit. It then checks that run.py fails,
without printing a result, in a directory that holds only BENCHMARK.json and
the benchmark's files. Exits non-zero on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds must be a whole number in [1, 60]")
    names = []
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("2 to 8 workloads required")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            fail(f"workload entry {w} malformed")
        names.append(w["name"])
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            if set(m) != keys or m["better"] not in ("lower", "higher"):
                fail(f"{group} entry {m} malformed")
            if not UNIT.match(m["unit"]):
                fail(f"unit of {m['name']} malformed")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']} outside (0, 0.25]")
            names.append(m["name"])
    for name in names:
        if not NAME.match(name):
            fail(f"name {name!r} malformed")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("end_to_end must hold setup_s in s, lower is better")


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=1200)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", name, "--seed", "1000",
                        "--seconds", "1", "--trace", str(trace), "--scale", "0.05"], ROOT)
            if proc.returncode != 0:
                fail(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name} trace {trace}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                fail(f"{name} trace {trace}: not correct\n{proc.stderr[-2000:]}")
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                fail(f"{name} trace {trace}: attempted must be a whole number >= 1")
            expected = {m["name"]: m["unit"] for m in spec[group]}
            printed = result["metrics"]
            if set(printed) != set(expected):
                fail(f"{name} trace {trace}: printed {sorted(printed)}, "
                     f"BENCHMARK.json {sorted(expected)}")
            for metric, entry in printed.items():
                if set(entry) != {"value", "unit"} or entry["unit"] != expected[metric]:
                    fail(f"{name} trace {trace}: {metric} entry {entry}")
                if not isinstance(entry["value"], (int, float)):
                    fail(f"{name} trace {trace}: {metric} value is not a number")
            print(f"selftest: {name} trace {trace}: ok "
                  f"({len(printed)} metrics, {result['attempted']} checks)")

    # Without the repository around it the benchmark must fail, not report.
    bare = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=180, env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py reported a result without the repository sources")
    print("selftest: bare directory: fails as required")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
