"""Measure one workload in this process and print one JSON document.

``perfbench/run.py`` starts this script in a fresh child process per
workload, with the environment (import path, model cache, temp directory,
BLAS threads) already set, so the process's peak RSS belongs to the
workload alone.  The document's ``metrics`` hold the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``),
each as a plain number; ``errors`` lists every failed check.

``--prepare`` trains (or loads) the cached models and exits; the parent
runs it in a separate process before any measurement.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads as wl
from repro.lp.backends import backend_capabilities

# Set-up runs at least five times and, for cheap set-ups, until this many
# seconds were spent on it, so its median rests on enough samples (three
# builds left acas_planes' setup_s spreading 0.27 over ten seeds).
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 50
TRACED_RUNS = 2
SERVICE_TRACED_JOBS = 40
# Enough jobs that at least ten latencies lie above the 90th percentile; on
# a slow host (0.13 s a cold job) this stretches service_jobs_cold's window
# to about 14 s.
SERVICE_MIN_JOBS = 105
# Work counters that must repeat exactly across runs of one seed.
EXACT_COUNTERS = (
    "syrenn.regions",
    "jacobian.rows",
    "jacobian.nnz",
    "jacobian.chunks",
    "lp.rows",
    "lp.iterations",
    "driver.rounds",
    "driver.pool.spilled_entries",
)
# The least share of a traced run's wall clock that the named layers (every
# span but the driver's and the daemon's own time) must account for, set
# below the split measured on each workload.  Work that moves out of every
# wrapped function lands in driver.self_s and trips it: left unwrapped, the
# pool re-check (CounterexamplePool.unsatisfied) takes squeezenet_rows to
# 0.91.  On the service workloads the driver's own time includes persisting
# job documents and pool checkpoints.
ACCOUNTED_FLOOR = {
    "acas_planes": 0.95,
    "mnist_fog_lines": 0.93,
    "squeezenet_rows": 0.95,
    "service_jobs_cold": 0.5,
    "service_jobs_warm": 0.3,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def set_up(name: str, seed: int) -> tuple:
    """Build the workload repeatedly; returns it and the median build time."""
    times = []
    while len(times) < SETUP_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        gc.collect()
        start = time.perf_counter()
        workload = wl.BUILDERS[name](seed)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


# ---------------------------------------------------------------------------
# Direct-API workloads
# ---------------------------------------------------------------------------
def check_repeats(outcomes, errors: list) -> dict:
    """Per instance: one digest and one set of work counters across repeats."""
    by_instance: dict = {}
    for outcome in outcomes:
        by_instance.setdefault(outcome.instance, []).append(outcome)
    consistent = {}
    for instance, runs in by_instance.items():
        digests = {run.digest for run in runs}
        counters = {json.dumps(run.counters, sort_keys=True) for run in runs}
        consistent[instance] = len(digests) == 1 and len(counters) == 1
        if len(digests) != 1:
            errors.append(f"{instance}: repaired parameters differ across runs of one seed")
        if len(counters) != 1:
            errors.append(f"{instance}: work counters differ across runs: {sorted(counters)}")
    return consistent


def direct_end_to_end(workload, seconds: float, errors: list) -> tuple:
    """Canonical runs for ``seconds`` (at least two), then the seeded variant once."""
    canonical = workload.canonical
    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < 2 or time.perf_counter() - start < seconds:
        gc.collect()
        outcome = wl.score(canonical, workload, *wl.timed_run(canonical))
        if outcomes:
            outcome.network = None  # the digest stands for it; only the first is re-checked
        outcomes.append(outcome)
    variant = wl.score(workload.variant, workload, *wl.timed_run(workload.variant))
    consistent = check_repeats(outcomes, errors)[canonical.name]
    good = []
    for instance, runs in ((canonical, outcomes), (workload.variant, [variant])):
        rechecked = wl.recheck(instance, runs[0].network)
        if not rechecked:
            errors.append(f"{instance.name}: the independent re-check failed")
        for outcome in runs:
            if not outcome.certified:
                errors.append(f"{instance.name}: run ended {outcome.status}")
            good.append(outcome.certified and rechecked and consistent)
    times = [o.seconds for o in outcomes]
    metrics = {
        "repair_s_p50": statistics.median(times),
        "certified_ratio": sum(good) / len(good),
        "delta_linf": outcomes[0].delta_linf,
        "drawdown_pct": outcomes[0].drawdown_pct,
        # The job metrics belong to the service workloads; every workload
        # must report every end-to-end metric, so here a job is one
        # canonical run: the same sample as repair_s_p50, restated.
        "job_latency_s_p50": statistics.median(times),
        "job_latency_s_p90": percentile(times, 90),
        "jobs_per_s": len(times) / sum(times),
    }
    info = {
        "canonical_runs": len(outcomes),
        "canonical_seconds": [round(t, 4) for t in times],
        "canonical_rounds": outcomes[0].counters["driver.rounds"],
        "seeded_variant": {
            "rounds": variant.counters["driver.rounds"],
            "seconds": round(variant.seconds, 3),
            "delta_linf": variant.delta_linf,
            "drawdown_pct": variant.drawdown_pct,
        },
    }
    return metrics, len(good), len(good) - sum(good), info


def layer_metrics(tracer: tracing.Tracer, workload: str, wall: float, errors: list) -> dict:
    """Per-layer figures of one traced run, plus the accounting check."""
    selfs = tracer.self_seconds()
    counts = tracer.counts
    if any(span.self_seconds < -1e-9 for span in tracer.spans):
        errors.append("a span's children outlast it: the trace does not nest")
    total = sum(selfs.values())
    solves = counts["lp.solves"]
    offered = counts["driver.pool.offered"]
    driver_self = selfs["driver"] + selfs["run"]
    named = total - driver_self - selfs["service"]
    accounted = named / wall if wall else 0.0
    if accounted < ACCOUNTED_FLOOR[workload]:
        errors.append(
            f"named layers account for {accounted:.3f} of the traced wall clock,"
            f" below the floor {ACCOUNTED_FLOOR[workload]}"
        )
    return {
        "syrenn.calls": counts["syrenn.calls"],
        "syrenn.regions": counts["syrenn.regions"],
        "syrenn.self_s": selfs["syrenn"],
        "verify.calls": counts["verify.calls"],
        "verify.self_s": selfs["verify"],
        "verify.value_only_ratio": counts["verify.value_only"] / max(1, counts["verify.calls"]),
        "nn.compute_rows": counts["nn.compute_rows"],
        "nn.compute_s": selfs["nn"],
        "jacobian.rows": counts["jacobian.rows"],
        "jacobian.nnz": counts["jacobian.nnz"],
        "jacobian.chunks": counts["jacobian.chunks"],
        "jacobian.self_s": selfs["jacobian"],
        "lp.rows": counts["lp.rows"],
        "lp.solves": solves,
        "lp.iterations": counts["lp.iterations"],
        "lp.warm_ratio": counts["lp.warm"] / max(1, solves),
        "lp.assemble_s": selfs["lp.assemble"],
        "lp.solve_s": selfs["lp.solve"],
        "driver.rounds": counts["driver.rounds"],
        "driver.self_s": driver_self,
        "driver.pool.admitted_ratio": counts["driver.pool.admitted"] / max(1, offered),
        "driver.pool.spilled_entries": counts["driver.pool.spilled_entries"],
        "driver.pool.unsatisfied_s": tracer.inclusive_seconds("driver.pool.unsatisfied"),
        "driver.pool.self_s": selfs["driver.pool"] + selfs["driver.pool.unsatisfied"],
        "engine.self_s": selfs["engine"],
        "service.self_s": selfs["service"],
        "trace.accounted_ratio": accounted,
    }


def merge_traced(runs: list[dict], errors: list) -> dict:
    """Medians of the traced runs' times; exact counters must agree."""
    for key in EXACT_COUNTERS:
        values = {run[key] for run in runs}
        if len(values) != 1:
            errors.append(f"{key} differs across traced runs of one seed: {sorted(values)}")
    return {
        key: (statistics.median(run[key] for run in runs) if key.endswith("_s") else runs[0][key])
        for key in runs[0]
    }


def direct_traced(workload, errors: list) -> tuple:
    """Untraced, then traced runs of the canonical instance."""
    instance = workload.canonical
    untraced = [wl.timed_run(instance) for _ in range(TRACED_RUNS)]
    tracer = tracing.install(tracing.Tracer())
    runs, traced, silent = [], [], set()
    try:
        for _ in range(TRACED_RUNS):
            tracer.reset()
            start = time.perf_counter()
            root = tracer.open("run")
            traced.append(wl.timed_run(instance))
            tracer.close(root)
            runs.append(layer_metrics(tracer, workload.name, time.perf_counter() - start, errors))
            silent.update(tracer.silent_wrappers(workload.name))
    finally:
        tracer.uninstall()
    if silent:
        errors.append(f"wrappers that never fired: {sorted(silent)}")
    reports = [report for _, report, _ in untraced + traced]
    if len({wl.parameter_digest(report.network) for report in reports}) != 1:
        errors.append("the traced repair differs from the untraced one")
    for report in reports:
        if not report.certified:
            errors.append(f"{instance.name}: run ended {report.status}")
    metrics = merge_traced(runs, errors)
    metrics.update(
        {
            "trace.overhead_s": statistics.median(seconds for seconds, _, _ in traced)
            - statistics.median(seconds for seconds, _, _ in untraced),
            "engine.cache_hit_ratio": 0.0,
            "engine.tasks": 0,
            "service.queue_s": 0.0,
            "service.run_s": 0.0,
            "service.client_overhead_s": 0.0,
        }
    )
    failed = sum(not report.certified for report in reports)
    return metrics, len(reports), failed, {"wrappers_fired": dict(tracer.fired)}


# ---------------------------------------------------------------------------
# The service workloads
# ---------------------------------------------------------------------------
@dataclass
class Stream:
    """The jobs one daemon served, in order; ``timed`` picks the measured ones."""

    jobs: list
    outcomes: list
    timed: slice
    wall: float
    health: dict
    # Peak RSS when the SERVICE_MIN_JOBS-th timed job finished.  The daemon
    # keeps every job's record, so the peak at the window's end would grow
    # with the number of jobs the host's speed let into the window.
    rss_mb: float = 0.0


def run_stream(workload, state_root: Path, *, seconds=None, jobs=None) -> Stream:
    """A closed loop of one client against a fresh in-process daemon.

    Sends ``workload.before``; then the stream, exactly ``jobs`` jobs or,
    with ``seconds``, until that long has passed and at least
    ``SERVICE_MIN_JOBS`` jobs finished; then ``workload.after``.
    """
    daemon = wl.InProcessDaemon(state_root)
    rss_mb = 0.0
    try:
        sent = list(workload.before)
        outcomes = [wl.run_job(daemon.client, job) for job in sent]
        start = time.perf_counter()
        for index, job in enumerate(workload.jobs):
            if jobs is not None and index >= jobs:
                break
            if (
                seconds is not None
                and index >= SERVICE_MIN_JOBS
                and time.perf_counter() - start >= seconds
            ):
                break
            sent.append(job)
            outcomes.append(wl.run_job(daemon.client, job))
            if index + 1 == SERVICE_MIN_JOBS:
                rss_mb = peak_rss_mb()
        wall = time.perf_counter() - start
        timed = slice(len(workload.before), len(outcomes))
        for job in workload.after:
            sent.append(job)
            outcomes.append(wl.run_job(daemon.client, job))
        health = daemon.client.health()
    finally:
        daemon.close()
    if seconds is not None and timed.stop - timed.start == len(workload.jobs):
        raise RuntimeError("the job stream ran out before the measuring window closed")
    return Stream(sent, outcomes, timed, wall, health, rss_mb)


def check_jobs(workload, stream: Stream, errors: list) -> list[dict]:
    """Re-check every job; jobs on one network must return one parameter digest."""
    checked: dict = {}
    results = []
    digests: dict = {}
    for job, outcome in zip(stream.jobs, stream.outcomes):
        key = (job["seed"], outcome.network_b64)
        if key not in checked:
            checked[key] = wl.check_job(job, outcome, workload.heldout_inputs)
        result = checked[key]
        digests.setdefault(job["seed"], set()).add(result["digest"])
        if not result["ok"]:
            errors.append(f"job with network seed {job['seed']} failed its re-check")
        results.append(result)
    differing = sorted(seed for seed, found in digests.items() if len(found) > 1)
    if differing:
        errors.append(f"jobs on networks {differing} returned different parameters")
        results = [
            dict(result, ok=False) if job["seed"] in differing else result
            for job, result in zip(stream.jobs, results)
        ]
    return results


def service_end_to_end(workload, seconds: float, state_root: Path, errors: list) -> tuple:
    stream = run_stream(workload, state_root, seconds=seconds)
    results = check_jobs(workload, stream, errors)
    timed = stream.outcomes[stream.timed]
    # Quality over the jobs every run completes, so it repeats exactly.
    scored = results[stream.timed][:SERVICE_MIN_JOBS]
    latencies = [o.latency_s for o in timed]
    good = [r["ok"] for r in results]
    metrics = {
        "repair_s_p50": statistics.median(o.run_s for o in timed),
        "certified_ratio": sum(good) / len(good),
        "delta_linf": statistics.median(r["delta_linf"] for r in scored),
        "drawdown_pct": statistics.median(r["drawdown_pct"] for r in scored),
        "job_latency_s_p50": statistics.median(latencies),
        "job_latency_s_p90": percentile(latencies, 90),
        "jobs_per_s": len(timed) / stream.wall,
        "peak_rss_mb": stream.rss_mb,
    }
    above_p90 = sum(latency > metrics["job_latency_s_p90"] for latency in latencies)
    info = {"jobs": len(results), "timed_jobs": len(timed), "jobs_above_p90": above_p90}
    if above_p90 < 10:
        errors.append(f"only {above_p90} jobs lie above p90; the window is too short")
    return metrics, len(good), len(good) - sum(good), info


def service_traced(workload, state_root: Path, errors: list) -> tuple:
    """One untraced, then traced streams of the same jobs, each on a fresh daemon."""
    untraced = run_stream(workload, state_root, jobs=SERVICE_TRACED_JOBS)
    tracer = tracing.install(tracing.Tracer())
    main_thread = threading.get_ident()
    runs, streams, silent = [], [], set()
    try:
        for _ in range(TRACED_RUNS):
            tracer.reset()
            stream = run_stream(workload, state_root, jobs=SERVICE_TRACED_JOBS)
            # Job spans live on the daemon's worker thread; the daemon's own
            # run_seconds of each job is the wall clock they share.
            tracer.spans[:] = [span for span in tracer.spans if span.thread != main_thread]
            wall = sum(o.run_s for o in stream.outcomes)
            runs.append(layer_metrics(tracer, workload.name, wall, errors))
            streams.append(stream)
            silent.update(tracer.silent_wrappers(workload.name))
    finally:
        tracer.uninstall()
    if silent:
        errors.append(f"wrappers that never fired: {sorted(silent)}")
    results = [check_jobs(workload, stream, errors) for stream in [untraced] + streams]
    if len({tuple(result["digest"] for result in phase) for phase in results}) != 1:
        errors.append("traced jobs returned different parameters than untraced ones")
    metrics = merge_traced(runs, errors)
    outcomes, health = streams[0].outcomes, streams[0].health
    cache = health["engine"]["cache"] or {}
    hits = sum(cache.get(tier, {}).get("hits", 0) for tier in ("memory", "disk"))
    misses = cache.get("disk", {}).get("misses", 0)
    metrics.update(
        {
            "engine.cache_hit_ratio": hits / max(1, hits + misses),
            "engine.tasks": health["engine"]["jobs_executed"],
            "service.queue_s": statistics.median(o.queue_s for o in outcomes),
            "service.run_s": statistics.median(o.run_s for o in outcomes),
            "service.client_overhead_s": statistics.median(
                o.client_s - o.latency_s for o in outcomes
            ),
            "trace.overhead_s": statistics.median(o.latency_s for o in outcomes)
            - statistics.median(o.latency_s for o in untraced.outcomes),
        }
    )
    attempted = sum(len(phase) for phase in results)
    failed = sum(not result["ok"] for phase in results for result in phase)
    return metrics, attempted, failed, {"wrappers_fired": dict(tracer.fired)}


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(wl.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--state-root", type=Path, required=True)
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    if args.prepare:
        wl.prepare_models()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload, setup_seconds = set_up(args.workload, args.seed)
    errors: list[str] = []
    service = args.workload in wl.SERVICE
    if args.trace:
        metrics, attempted, failed, info = (
            service_traced(workload, args.state_root, errors)
            if service
            else direct_traced(workload, errors)
        )
    else:
        metrics, attempted, failed, info = (
            service_end_to_end(workload, args.seconds, args.state_root, errors)
            if service
            else direct_end_to_end(workload, args.seconds, errors)
        )
        metrics["setup_s"] = setup_seconds
        metrics.setdefault("peak_rss_mb", peak_rss_mb())
    info["lp_backend"] = backend_capabilities()
    info["highs_native"] = backend_capabilities("highs_native")
    json.dump(
        {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "metrics": metrics,
            "info": info,
        },
        sys.stdout,
        default=float,
    )
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
