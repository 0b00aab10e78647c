#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The benchmark is the Rust package beside this file. It is built with
`cargo build --release` into `$CARGO_TARGET_DIR` (default
`.bench_build` at the repository root), with the same release profile
as the workspace. The last line of standard output is the result
object; the lines before it are the readable report. Full results and,
for traced runs, every span are written under
`<target dir>/perfbench-results/`.

`--self-test` runs the smoke size of every workload, untraced and
traced, and checks that every metric BENCHMARK.json names is printed
with its unit.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Inputs of the build: their digest identifies the measured source when
# the checkout carries no git metadata.
SOURCE_PARTS = ["Cargo.toml", "Cargo.lock", "crates", "shims", HERE.name]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no repository sources beside {HERE.name}/; nothing to build", 2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return target_dir() / "release" / "perfbench"


def commit():
    """The git commit (with `-dirty` for uncommitted tracked changes), or
    `unknown` in a checkout without its own git metadata."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def source_digest():
    digest = hashlib.sha256()
    for part in SOURCE_PARTS:
        base = ROOT / part
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            rel = path.relative_to(ROOT)
            if any(c.startswith(".") or c == "target" for c in rel.parts):
                continue
            digest.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def run(binary, workload, seed, seconds, trace, smoke=False, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(target_dir() / "perfbench-results"),
           "--commit", commit(), "--source-digest", source_digest()]
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              capture_output=capture)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")


def self_test(binary):
    """Every metric BENCHMARK.json names, with its unit, on the smoke size
    of every workload, untraced and traced; all checks passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(binary, workload, 1, 1, trace, smoke=True, capture=True)
            where = f"{workload} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr.strip()}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            metrics = result["metrics"]
            names = [m["name"] for m in declared[trace]]
            if sorted(metrics) != sorted(names):
                problems.append(f"{where}: metrics {sorted(set(metrics) ^ set(names))} "
                                "printed but not declared, or declared but not printed")
            for m in declared[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got.get("unit") != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} "
                                    f"!= {m['unit']!r}")
                value = got.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} value {value!r}")
            print(f"self-test {where}: {len(metrics)} metrics", file=sys.stderr)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["stream", "sparse", "cycle"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true",
                        help="the workload's smoke size (seconds, not minutes)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    done = run(binary, args.workload, args.seed, args.seconds, args.trace, smoke=args.smoke)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
