#!/usr/bin/env python3
"""Compare benchmark results of a base and a changed build, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is a results record that run.py writes under
`<target dir>/perfbench-results/`. All records must come from the same
build configuration (compiler, profile, RUSTFLAGS, FMA, core count) and
the same workload settings; otherwise the comparison is refused with
exit code 3. A tier-1 and a `+fma` build differ by about 20x, so such a
comparison says nothing about a change. Commits may differ.

For every metric the table gives each side's median over its records,
the change of the median, and, for end-to-end metrics, the verdict
against the bound BENCHMARK.json fixes. A metric whose base spread
(interquartile range over median) exceeds its bound is unresolved.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_KEYS = ("rustc", "profile", "rustflags", "fma", "nproc")
RUN_KEYS = ("workload", "trace", "smoke", "seconds")


def load(paths):
    return [(p, json.loads(Path(p).read_text())) for p in paths]


def refuse_mixed(records):
    first_path, first = records[0]
    for path, rec in records[1:]:
        for key in BUILD_KEYS:
            if rec["build"][key] != first["build"][key]:
                return (f"build {key} differs: {first_path}: {first['build'][key]!r} "
                        f"vs {path}: {rec['build'][key]!r}")
        for key in RUN_KEYS:
            if rec[key] != first[key]:
                return f"{key} differs: {first_path}: {first[key]!r} vs {path}: {rec[key]!r}"
    return None


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return abs(q[2] - q[0]) / abs(med)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()
    base, change = load(args.base), load(args.change)
    problem = refuse_mixed(base + change)
    if problem:
        print(f"compare: refused: {problem}", file=sys.stderr)
        return 3

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for side, recs in (("base", base), ("change", change)):
        attempted = sum(r["attempted"] for _, r in recs)
        failed = sum(r["failed"] for _, r in recs)
        print(f"{side}: {len(recs)} runs, {failed} failed of {attempted} ops")

    print(f"{'metric':<40} {'base':>14} {'change':>14} {'change%':>9}  verdict")
    for name in base[0][1]["metrics"]:
        b = [r["metrics"][name]["value"] for _, r in base]
        c = [r["metrics"][name]["value"] for _, r in change if name in r["metrics"]]
        if not c:
            continue
        mb, mc = statistics.median(b), statistics.median(c)
        delta = (mc - mb) / abs(mb) if mb else 0.0
        verdict = ""
        meta = declared.get(name, {})
        if "bound" in meta:
            worse = -delta if meta["better"] == "higher" else delta
            if spread(b) > meta["bound"]:
                verdict = "unresolved (base spread above bound)"
            elif worse > meta["bound"]:
                verdict = f"WORSE beyond bound {meta['bound']}"
            else:
                verdict = f"within bound {meta['bound']}"
        print(f"{name:<40} {mb:>14.6g} {mc:>14.6g} {100 * delta:>8.2f}%  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
