#!/usr/bin/env python3
"""Medians, quartiles and spreads of untraced runs saved in bench/out/.

    python3 bench/summarize.py [--seeds 101-110]

For each workload and end-to-end metric, and for the host probe: the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, as markdown table rows.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
METRICS = ("wall_s", "setup_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def row(name: str, values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", help="first-last, inclusive")
    args = parser.parse_args()
    seeds = None
    if args.seeds:
        lo, hi = (int(x) for x in args.seeds.split("-"))
        seeds = range(lo, hi + 1)
    runs: dict[str, list[dict]] = {}
    for path in sorted(OUT.glob("result-*-trace0.json")):
        data = json.loads(path.read_text())
        if seeds is None or data["seed"] in seeds:
            runs.setdefault(data["workload"], []).append(data)
    for workload, results in runs.items():
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs, seeds {sorted(r['seed'] for r in results)}")
        print("| metric | median | q1 | q3 | spread |\n|---|---|---|---|---|")
        for metric in METRICS:
            print(row(metric, [r["metrics"][metric]["value"] for r in results]))
        print(row("host probe (ms)", [p for r in results for p in r["host_probe_ms"]]))


if __name__ == "__main__":
    main()
