"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads acas_planes service_jobs_cold --seeds 1 2 3 4 5

For every workload and end-to-end metric it prints the median over the
seeds and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of that median, next to
the metric's bound from ``BENCHMARK.json``.  Spreads above a third of the
bound are marked; the script exits 1 when a run fails its checks or any
spread, ``setup_s``'s included, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = parser.parse_args(argv)
    over_bound = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(manifest["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(completed.stdout, file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for metric in manifest["end_to_end"]:
            series = values[metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            mark = ""
            if spread > metric["bound"]:
                mark = "  <-- ABOVE BOUND"
                over_bound += 1
            elif spread > metric["bound"] / 3:
                mark = "  <-- above bound/3"
            print(f"  {metric['name']:<20} median {median:<12.6g} spread {spread:6.3f}"
                  f"  bound {metric['bound']}{mark}")
            print(f"    {' '.join(f'{v:.6g}' for v in series)}")
    return 1 if over_bound else 0


if __name__ == "__main__":
    sys.exit(main())
