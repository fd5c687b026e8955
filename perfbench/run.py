#!/usr/bin/env python3
"""The repository benchmark: DeepQueueNet estimation speed and accuracy.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (which compiles the library under src/ from source) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), trains the
network PTM into the benchmark's own model cache once (never ./dqn_models),
runs the measuring program, checks its output against BENCHMARK.json, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. The line before it is a stamp: host, build, model key,
source revision and the delivery fingerprint.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
--scale shrinks the scenarios and trainings; only the self-test uses it.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def child_env(model_dir):
    """The caller's environment without the DQN_* knobs the benches read."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DQN_")}
    env["DQN_MODEL_DIR"] = str(model_dir)
    return env


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench_driver"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return build_dir / "perfbench_driver"


def source_revision():
    """git HEAD when the tree is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def validate(result, expected):
    """Check names and units against BENCHMARK.json and every value for
    sanity; returns the list of problems found."""
    problems = []
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in expected):
        problems.append(f"metric names {sorted(metrics)} differ from BENCHMARK.json "
                        f"{sorted(m['name'] for m in expected)}")
    for spec in expected:
        entry = metrics.get(spec["name"])
        if entry is None:
            continue
        if entry.get("unit") != spec["unit"]:
            problems.append(f"{spec['name']}: unit {entry.get('unit')!r}, "
                            f"BENCHMARK.json says {spec['unit']!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{spec['name']}: value {value!r} is not a finite number")
            entry["value"] = -1.0
        elif spec["unit"] == "s" and value < 0:
            problems.append(f"{spec['name']}: negative time {value}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2
    expected = spec["per_layer" if args.trace else "end_to_end"]

    root = build_root()
    model_dir = root / "perfbench-models"
    out_dir = root / "perfbench-out"
    driver = build(root / "perfbench")
    env = child_env(model_dir)

    # Train (or find) the network PTM before anything is timed.
    subprocess.run([str(driver), "prepare", "--model-dir", str(model_dir)],
                   check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)

    started = time.monotonic()
    proc = subprocess.run(
        [str(driver), "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--scale", repr(args.scale), "--model-dir", str(model_dir),
         "--out-dir", str(out_dir)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        log(f"measuring program failed (exit {proc.returncode})")
        return 1
    stamp = json.loads(lines[-2])["stamp"]
    result = json.loads(lines[-1])

    problems = validate(result, expected)
    for problem in problems:
        log(f"FAILED: {problem}")
    failed = result["failed"] + len(problems)
    attempted = result["attempted"] + len(problems)
    stamp["source"] = source_revision()
    stamp["run_wall_s"] = time.monotonic() - started
    stamp["fail_frac"] = failed / attempted
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
