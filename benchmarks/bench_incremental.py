"""Incremental-CEGIS benchmark: cold vs incremental driver rounds on ACAS φ8.

Builds the strengthened φ8 verification workload (every linear region of
``--slices`` random 2-D slices of the property box becomes its own
verification region) and runs the CEGIS repair driver twice over each
scenario:

* **cold** — today's loop: every round re-decomposes nothing (the verifier
  caches partitions) but re-walks every linear region's vertices in Python,
  re-encodes the *whole* pool's Jacobian rows, and rebuilds + re-solves the
  repair LP from scratch;
* **incremental** — ``RepairDriver(incremental=True)``: verification takes
  the value-only fast path (one batched re-evaluation of the cached vertex
  stack per round), repair appends only the new counterexamples' rows to a
  standing LP session, and solves thread a warm-start handle.

Round counts are scaled by rationing counterexample intake
(``max_new_counterexamples``): a smaller ration means more, smaller rounds —
the regime incremental infrastructure exists for.  Because round 0 builds
the caches both runs share (and is byte-identical between them), the
headline metric is the **per-round speedup over rounds ≥ 1**; the report
also carries end-to-end totals.

The cross-check is strict and always on: both runs must certify, agree on
every region verdict and margin, take the same number of rounds, and end at
**byte-identical** value-channel parameters (the default scipy/HiGHS
backend's warm start is exact, so incremental execution must not change a
single bit).  With ``--min-round-speedup`` (set by default to 2.0 for
scenarios reaching ≥ 4 rounds) the script also fails if the speedup target
is missed.

On top of the cold/incremental pair (default backend), every scenario also
sweeps an **LP backend portfolio** (``--backends``, default scipy and the
native highspy backend): each backend gets its own cold + incremental pair, its per-round cost lands in
the record's ``backends`` table, and — whenever the backend's warm start is
exact — the same byte-level cross-check the default pair gets.  Degraded
backends (``highs_native`` without ``highspy``) are benchmarked in whatever
mode the environment provides and flagged via ``available``.

Results are written as JSON with the same report shape as
``bench_lp_scaling.py`` (default ``BENCH_incremental.json``) so CI can
archive the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_incremental.py --smoke   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

import repro.obs as obs
from conftest import telemetry_document
from repro.datasets.acas import phi8_property
from repro.driver import RepairDriver
from repro.experiments.task3_acas import Task3Setup, strengthened_verification_spec
from repro.lp.backends import backend_capabilities
from repro.models.acas_models import build_acas_network
from repro.utils.rng import ensure_rng
from repro.verify import SyrennVerifier, VerificationSpec

MAX_ROUNDS = 60

#: LP backends benchmarked per scenario (see ``--backends``).
DEFAULT_PORTFOLIO = ["scipy", "highs_native"]


def build_workload(
    num_slices: int, hidden_size: int, hidden_layers: int, seed: int
) -> tuple:
    """An advisory network plus the strengthened φ8 slice spec."""
    network = build_acas_network(
        hidden_size=hidden_size, hidden_layers=hidden_layers, seed=seed
    )
    safety_property = phi8_property()
    rng = ensure_rng(seed)
    slices = [safety_property.random_slice(rng) for _ in range(num_slices)]
    empty = np.zeros((0, network.input_size))
    setup = Task3Setup(network, safety_property, slices, empty, empty, 0)
    return network, strengthened_verification_spec(network, setup)


def run_driver(
    network,
    spec: VerificationSpec,
    *,
    incremental: bool,
    ration: int,
    backend: str | None = None,
) -> dict:
    """One full driver run; returns timings plus the report for cross-checks."""
    start = time.perf_counter()
    driver = RepairDriver(
        network,
        spec,
        SyrennVerifier(),
        max_rounds=MAX_ROUNDS,
        incremental=incremental,
        max_new_counterexamples=ration,
        backend=backend,
    )
    report = driver.run()
    total = time.perf_counter() - start
    per_round = [record.seconds + record.repair_seconds for record in report.rounds]
    later = per_round[1:]  # round 0 builds the shared caches, identically
    return {
        "total_seconds": total,
        "rounds": report.num_rounds,
        "status": report.status,
        "certified": report.certified,
        "pool_size": report.pool_size,
        "per_round_seconds": per_round,
        "mean_round_seconds": sum(later) / len(later) if later else float("nan"),
        "lp_rows_appended": report.lp_rows_appended,
        "warm_started_rounds": report.warm_started_rounds,
        "value_only_rounds": report.value_only_rounds,
        "lp_iterations": report.lp_iterations,
        "timing": report.timing.as_dict(),
        "report": report,
    }


def cross_check(cold: dict, incremental: dict) -> None:
    """Byte-level equivalence of the two runs (raises on any mismatch)."""
    cold_report, incremental_report = cold["report"], incremental["report"]
    if cold["rounds"] != incremental["rounds"]:
        raise AssertionError(
            f"round counts diverged: cold {cold['rounds']}, "
            f"incremental {incremental['rounds']}"
        )
    if cold_report.final_report.region_statuses != incremental_report.final_report.region_statuses:
        raise AssertionError("incremental run disagrees with cold verdicts")
    if cold_report.final_report.region_margins != incremental_report.final_report.region_margins:
        raise AssertionError("incremental run disagrees with cold margins")
    for layer_index in cold_report.network.repairable_layer_indices():
        cold_flat = cold_report.network.value.layers[layer_index].get_parameters()
        incremental_flat = incremental_report.network.value.layers[
            layer_index
        ].get_parameters()
        if cold_flat.tobytes() != incremental_flat.tobytes():
            raise AssertionError(
                f"parameter deltas of layer {layer_index} are not byte-identical"
            )
    if cold_report.unsatisfied_pool_indices or incremental_report.unsatisfied_pool_indices:
        raise AssertionError("a final network violates pooled counterexamples")


def run_backend_portfolio(network, spec, *, ration: int, backends: list[str]) -> dict:
    """Per-backend cold + incremental pairs for one scenario.

    Returns ``{backend: {...}}`` with per-round costs, the round speedup, and
    the capability probe.  Backends whose warm start is exact get the full
    byte-level :func:`cross_check`; inexact ones (the native basis-reuse
    path steers pivots) are held to verdict-level agreement — both runs
    must certify.
    """
    table: dict[str, dict] = {}
    for backend_name in backends:
        probe = backend_capabilities(backend_name)
        cold = run_driver(
            network, spec, incremental=False, ration=ration, backend=backend_name
        )
        incremental = run_driver(
            network, spec, incremental=True, ration=ration, backend=backend_name
        )
        if probe["warm_start_is_exact"]:
            cross_check(cold, incremental)
        elif not (cold["certified"] and incremental["certified"]):
            raise AssertionError(
                f"backend {backend_name!r} failed to certify the workload"
            )
        cold.pop("report")
        incremental.pop("report")
        table[backend_name] = {
            "slug": backend_name,
            "available": probe["available"],
            "warm_start_is_exact": probe["warm_start_is_exact"],
            "cold_mean_round_seconds": cold["mean_round_seconds"],
            "incremental_mean_round_seconds": incremental["mean_round_seconds"],
            "round_speedup": cold["mean_round_seconds"]
            / max(incremental["mean_round_seconds"], 1e-12),
            "rounds": incremental["rounds"],
            "warm_started_rounds": incremental["warm_started_rounds"],
            "total_seconds": incremental["total_seconds"],
        }
        entry = table[backend_name]
        print(
            f"    backend={backend_name:<28} "
            f"cold/round={entry['cold_mean_round_seconds'] * 1e3:7.1f}ms  "
            f"incremental/round={entry['incremental_mean_round_seconds'] * 1e3:7.1f}ms  "
            f"round-speedup={entry['round_speedup']:.1f}x"
            f"{'' if entry['available'] else '  (degraded: native solver missing)'}"
        )
    return table


def run_benchmark(
    rations: list[int],
    *,
    num_slices: int,
    hidden_size: int,
    hidden_layers: int,
    seed: int,
    min_round_speedup: float | None,
    backends: list[str] | None = None,
) -> dict:
    """Sweep counterexample rations and return the JSON-ready report."""
    network, spec = build_workload(num_slices, hidden_size, hidden_layers, seed)
    records = []
    for ration in rations:
        cold = run_driver(network, spec, incremental=False, ration=ration)
        incremental = run_driver(network, spec, incremental=True, ration=ration)
        cross_check(cold, incremental)
        cold.pop("report")
        incremental.pop("report")
        round_speedup = cold["mean_round_seconds"] / max(
            incremental["mean_round_seconds"], 1e-12
        )
        total_speedup = cold["total_seconds"] / max(incremental["total_seconds"], 1e-12)
        record = {
            "ration": ration,
            "rounds": cold["rounds"],
            "cold": cold,
            "incremental": incremental,
            "round_speedup": round_speedup,
            "total_speedup": total_speedup,
            "backends": run_backend_portfolio(
                network, spec, ration=ration, backends=backends or DEFAULT_PORTFOLIO
            ),
        }
        records.append(record)
        print(
            f"ration={ration:>3}  rounds={cold['rounds']:>3}  "
            f"cold/round={cold['mean_round_seconds'] * 1e3:7.1f}ms  "
            f"incremental/round={incremental['mean_round_seconds'] * 1e3:7.1f}ms  "
            f"round-speedup={round_speedup:.1f}x  total-speedup={total_speedup:.1f}x  "
            f"(warm={incremental['warm_started_rounds']}, "
            f"value-only={incremental['value_only_rounds']})"
        )
        if (
            min_round_speedup is not None
            and cold["rounds"] >= 4
            and round_speedup < min_round_speedup
        ):
            raise AssertionError(
                f"round speedup {round_speedup:.2f}x below the required "
                f"{min_round_speedup:.2f}x at {cold['rounds']} rounds"
            )
    return {
        "benchmark": "incremental",
        "network": {
            "hidden_size": hidden_size,
            "hidden_layers": hidden_layers,
            "input_size": 5,
        },
        "num_slices": num_slices,
        "regions": spec.num_regions,
        "seed": seed,
        "python": platform.python_version(),
        "results": records,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Sized flags default to None (a sentinel) so --smoke can fill in only
    # the values the user did not pass explicitly.
    parser.add_argument(
        "--rations",
        type=int,
        nargs="+",
        default=None,
        help="per-round counterexample rations to sweep "
        "(default: 4 8 16; 6 with --smoke)",
    )
    parser.add_argument(
        "--slices", type=int, default=None,
        help="φ8 slices in the workload (default: 6; 3 with --smoke)",
    )
    parser.add_argument(
        "--hidden", type=int, default=None,
        help="hidden layer width (default: 24; 12 with --smoke)",
    )
    parser.add_argument(
        "--layers", type=int, default=None,
        help="hidden layer count (default: 5; 3 with --smoke)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backends",
        nargs="+",
        default=None,
        help="LP backends to sweep per scenario "
        f"(default: {' '.join(DEFAULT_PORTFOLIO)})",
    )
    parser.add_argument(
        "--min-round-speedup",
        type=float,
        default=2.0,
        help="fail if the per-round speedup at >=4 rounds drops below this "
        "(pass 0 to disable; default: 2.0)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke: one small workload and a single ration "
        "(explicitly passed flags still win)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_incremental.json"),
        help="where to write the JSON report (default: BENCH_incremental.json)",
    )
    args = parser.parse_args()
    obs.enable()
    defaults = (
        {"rations": [6], "slices": 3, "hidden": 12, "layers": 3}
        if args.smoke
        else {"rations": [4, 8, 16], "slices": 6, "hidden": 24, "layers": 5}
    )
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    report = run_benchmark(
        args.rations,
        num_slices=args.slices,
        hidden_size=args.hidden,
        hidden_layers=args.layers,
        seed=args.seed,
        min_round_speedup=args.min_round_speedup or None,
        backends=args.backends,
    )
    report["telemetry"] = telemetry_document()
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
