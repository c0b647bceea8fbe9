"""How steady each end-to-end metric is across seeds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workload serve --seeds 1-10

Runs ``run.py --trace 0`` once per seed, then prints each metric's
median and its quartile spread (inter-quartile distance over median)
next to a third of the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import calc

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        run_stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[len("stamp "):])
        line = [f"steal={run_stamp['steal_share']:.3f}"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{'metric':22s} {'median':>12s} {'spread':>8s} {'bound/3':>8s}")
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        spread = calc.quartile_spread(series)
        flag = "" if spread < metric["bound"] / 3 else "  <-- wide"
        print(
            f"{metric['name']:22s} {calc.median(series):12.6g} "
            f"{spread:8.4f} {metric['bound'] / 3:8.4f}{flag}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
