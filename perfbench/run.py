"""The repair benchmark: one workload per call, every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload acas_planes --seed 1 --seconds 10 --trace 0

The workloads and metrics are the ones ``BENCHMARK.json`` lists.  The
script builds nothing: it runs the package under ``src/`` directly.  On
the first run in a checkout it trains the cached models in a separate
process; every run then measures the workload in a fresh child process
(``perfbench/measure.py``) so peak RSS belongs to that workload alone.
The child's environment points the model cache and every temporary file
into ``.bench_cache/`` of the checkout and pins BLAS to one thread.

It prints one line per metric, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  ``correct`` is false when any check failed: a run that did
not certify, a failed independent re-check, repaired parameters or work
counters that differ across runs of one seed, a wrapper that never fired,
or a traced repair that differs from the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT = 170
BLAS_THREADS = 1
BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_environment(cache: Path) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update({name: threads for name in BLAS_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_CACHE_DIR"] = str(cache / "models")
    env["TMPDIR"] = str(cache / "tmp")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(arguments: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "measure.py"), *arguments],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=False,
    )


def fail(message: str, detail: str = "") -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    if detail:
        print(detail[-4000:], file=sys.stderr)
    return 2


def main(argv=None) -> int:
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        return fail(f"{manifest_path} is missing")
    manifest = json.loads(manifest_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in manifest["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no package to measure: {ROOT / 'src' / 'repro'} is missing")
    cache = ROOT / ".bench_cache"
    for directory in ("models", "tmp", "state"):
        (cache / directory).mkdir(parents=True, exist_ok=True)
    env = child_environment(cache)
    try:
        # The marker is written only after the models were cached, so a
        # checkout prepares once and an interrupted preparation is redone.
        marker = cache / "models" / "prepared"
        if not marker.is_file():
            prepared = run_child(["--prepare", "--state-root", str(cache / "state")], env)
            if prepared.returncode != 0:
                return fail("preparing the cached models failed", prepared.stderr)
            marker.write_text("")
        measured = run_child(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--state-root", str(cache / "state"),
            ],
            env,
        )
    except subprocess.TimeoutExpired as error:
        return fail(f"the child process exceeded {error.timeout:.0f}s")
    if measured.returncode != 0:
        return fail(f"measuring {args.workload} failed", measured.stderr)
    lines = measured.stdout.strip().splitlines()
    if not lines:
        return fail(f"measuring {args.workload} printed nothing", measured.stderr)
    document = json.loads(lines[-1])

    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in document["metrics"]]
    if missing:
        return fail(f"the measurement lacks metrics {missing}")
    threads = env["OMP_NUM_THREADS"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  blas_threads {threads}")
    for key, value in document["info"].items():
        print(f"  {key}: {json.dumps(value)}")
    for error in document["errors"]:
        print(f"  CHECK FAILED: {error}")
    metrics = {}
    for metric in wanted:
        value = float(document["metrics"][metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<28} {value:>14.6g} {metric['unit']}")
    result = {
        "correct": bool(document["correct"]),
        "attempted": int(document["attempted"]),
        "failed": int(document["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
