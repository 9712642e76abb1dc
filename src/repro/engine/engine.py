"""The sharded, parallel SyReNN execution engine.

:class:`ShardedSyrennEngine` turns the two dominant costs of the pipeline —
exact SyReNN decomposition and per-region network sweeps — into task
batches that run across a ``multiprocessing`` worker pool:

1. **Sharding** — each input line/plane splits into geometry shards
   (:mod:`repro.engine.sharding`); shard layout depends only on the geometry
   and ``shards_per_region``, never on the worker count.
2. **Dispatch** — each engine call turns its shards and sweeps into one
   batch of tasks, which the pool runs concurrently (a call whose every
   region is a cache hit dispatches nothing).
3. **Merging** — per-shard results merge deterministically in input order,
   so any worker count (including ``workers=1``, which runs every task
   in-process) produces byte-identical partitions, verdicts, and repairs.
4. **Caching** — merged decomposition payloads live in a two-tier
   :class:`~repro.engine.cache.PartitionCache` keyed by
   ``(network fingerprint, geometry digest)``; the disk tier is shared
   across processes.

Workers are started with the ``spawn`` method: they inherit
nothing, so networks cross the boundary as
:func:`repro.utils.serialization.encode_network` payloads and every task is
a plain picklable tuple (:mod:`repro.engine.worker`).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.engine.cache import BoundedLru, PartitionCache
from repro.engine.sharding import (
    chunk_spans,
    merge_line_partitions,
    shard_polygon,
    shard_segment,
)
from repro.engine.worker import encode_region, run_task
from repro.exceptions import EngineError
from repro.polytope.segment import LineSegment
from repro.syrenn.line import LinePartition
from repro.syrenn.plane import PlanePartition, PlaneRegion
from repro.syrenn.regions import LinearRegion, geometry_digest
from repro.utils.serialization import encode_network, network_fingerprint

#: How many encoded network payloads the engine keeps around (a CEGIS driver
#: produces one fresh value channel per round; payloads are small).
MAX_PAYLOADS = 16


class ShardedSyrennEngine:
    """A parallel execution engine for decomposition and verification jobs.

    Parameters
    ----------
    workers:
        Worker processes.  ``1`` (the default) executes every task inline in
        the calling process — exactly today's serial behavior, which is what
        the differential tests pin against.  ``None`` uses the machine's CPU
        count.
    shards_per_region:
        Geometry shards per line/plane.  ``1`` keeps each region a single
        task (regions already parallelize across the pool); larger values
        additionally split each region, which helps few-huge-region specs.
        Sharding refines the partition (shard boundaries may appear as extra
        breakpoints) but never changes verification verdicts, and the merged
        output is independent of the worker count.
    cache:
        ``True`` (default) builds a :class:`PartitionCache` with the default
        ``REPRO_CACHE_DIR`` disk tier; ``False``/``None`` disables caching;
        an explicit :class:`PartitionCache` is used as given.
    """

    def __init__(
        self,
        workers: int | None = 1,
        *,
        shards_per_region: int = 1,
        cache: PartitionCache | bool | None = True,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise EngineError("workers must be a positive integer (or None for cpu_count)")
        if shards_per_region < 1:
            raise EngineError("shards_per_region must be positive")
        self.workers = int(workers)
        self.shards_per_region = int(shards_per_region)
        if cache is True:
            self.cache: PartitionCache | None = PartitionCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.jobs_executed = 0
        self.batches_dispatched = 0
        self._pool = None
        self._payloads = BoundedLru(MAX_PAYLOADS)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context("spawn")
            self._pool = context.Pool(processes=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (a later dispatch restarts it)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ShardedSyrennEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute_batch(self, tasks: list) -> list:
        """Run one task batch: inline for one worker, pooled otherwise."""
        if obs.enabled():
            # Counted for every batch, inline or pooled, so the series is
            # identical at any worker count (each engine call is one batch,
            # whatever the worker count).
            obs.counter(
                "repro_engine_batches_total",
                "Task batches executed by the engine.",
            ).inc()
        if self.workers == 1 or len(tasks) == 1:
            # Inline tasks record telemetry straight into the process
            # registry (run_task handles the obs.enabled() branch itself).
            return [run_task(task) for task in tasks]
        # Each chunk is pickled as one object, and every task in it holds a
        # reference to the *same* payload bytes (see _payload), so pickle's
        # memo ships the network once per chunk — not once per task.
        chunksize = max(1, len(tasks) // (4 * self.workers))
        if not obs.enabled():
            return self._ensure_pool().map(run_task, tasks, chunksize=chunksize)
        # Telemetry-wrapped dispatch: each worker runs its task under a
        # fresh capture and ships back (result, telemetry).  The wrappers
        # reference the original task tuples, so the pickle memo still
        # ships each network payload once per chunk.
        with obs.span("engine.batch", tasks=len(tasks), workers=self.workers):
            wrapped = [("obs", task) for task in tasks]
            raw = self._ensure_pool().map(run_task, wrapped, chunksize=chunksize)
            results = []
            # Absorbing in task (input) order is what makes the merged
            # registry and span tree independent of worker scheduling.
            for result, telemetry in raw:
                obs.absorb(telemetry)
                results.append(result)
        return results

    def _payload(self, network) -> tuple[str, bytes]:
        # Returning the cached bytes object (not a copy) matters: tasks built
        # from it share identity, which is what lets a pickled chunk carry
        # the network payload once for all of its tasks.
        fingerprint = network_fingerprint(network)
        payload = self._payloads.get(fingerprint)
        if payload is None:
            payload = encode_network(network)
            self._payloads.put(fingerprint, payload)
        return fingerprint, payload

    def _gather(self, tasks: list) -> list:
        """Run ``tasks`` as one batch; results in task order.

        An empty batch (every region a cache hit) returns ``[]`` without
        counting a batch or starting the pool.
        """
        if not tasks:
            return []
        results = self._execute_batch(tasks)
        self.batches_dispatched += 1
        self.jobs_executed += len(tasks)
        return results

    # ------------------------------------------------------------------
    # Decomposition API
    # ------------------------------------------------------------------
    def transform_lines(
        self, network, segments: list[LineSegment], use_cache: bool = True
    ) -> list[LinePartition]:
        """``LinRegions`` of many segments concurrently, results in input order."""
        plan = self._plan_lines(network, segments, use_cache)
        return self._finish_lines(plan, self._gather(plan.tasks))

    def transform_planes(
        self, network, polygons: list[np.ndarray], use_cache: bool = True
    ) -> list[PlanePartition]:
        """``LinRegions`` of many planar polygons concurrently, in input order."""
        plan = self._plan_planes(network, polygons, use_cache)
        return self._finish_planes(plan, self._gather(plan.tasks))

    def _plan_lines(self, network, segments: list[LineSegment], use_cache: bool) -> "_Plan":
        """Cache lookups + shard tasks for segments, without dispatching."""
        fingerprint, payload = self._payload(network)
        cache = self.cache if use_cache else None
        plan = _Plan(cache=cache, partitions=[None] * len(segments))
        for index, segment in enumerate(segments):
            key = (fingerprint, geometry_digest(segment, self.shards_per_region))
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                plan.partitions[index] = LinePartition(
                    segment=segment, ratios=cached["ratios"]
                )
                continue
            plan.pending.append((index, segment, key, self.shards_per_region))
            for shard in shard_segment(segment, self.shards_per_region):
                plan.tasks.append(("line", fingerprint, payload, shard.start, shard.end))
        return plan

    def _finish_lines(self, plan: "_Plan", results: list) -> list[LinePartition]:
        """Merge per-shard ratios into partitions and populate the cache."""
        cursor = 0
        for index, segment, key, num_shards in plan.pending:
            shard_ratios = results[cursor : cursor + num_shards]
            cursor += num_shards
            partition = merge_line_partitions(segment, shard_ratios)
            plan.partitions[index] = partition
            if plan.cache is not None:
                plan.cache.put(key, {"ratios": partition.ratios})
        return plan.partitions

    def _plan_planes(self, network, polygons: list[np.ndarray], use_cache: bool) -> "_Plan":
        """Cache lookups + wedge tasks for polygons, without dispatching."""
        fingerprint, payload = self._payload(network)
        cache = self.cache if use_cache else None
        plan = _Plan(cache=cache, partitions=[None] * len(polygons))
        for index, vertices in enumerate(polygons):
            vertices = np.asarray(vertices, dtype=np.float64)
            key = (fingerprint, geometry_digest(vertices, self.shards_per_region))
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                plan.partitions[index] = _decode_plane_payload(cached)
                continue
            wedges = shard_polygon(vertices, self.shards_per_region)
            plan.pending.append((index, None, key, len(wedges)))
            plan.tasks.extend(("plane", fingerprint, payload, wedge) for wedge in wedges)
        return plan

    def _finish_planes(self, plan: "_Plan", results: list) -> list[PlanePartition]:
        """Concatenate per-wedge regions into partitions and populate the cache."""
        cursor = 0
        for index, _, key, num_wedges in plan.pending:
            pieces: list[tuple[np.ndarray, np.ndarray]] = []
            for shard_result in results[cursor : cursor + num_wedges]:
                pieces.extend(shard_result)
            cursor += num_wedges
            partition = PlanePartition(
                regions=[
                    PlaneRegion(input_vertices=inputs, plane_vertices=plane)
                    for inputs, plane in pieces
                ]
            )
            plan.partitions[index] = partition
            if plan.cache is not None:
                plan.cache.put(key, _encode_plane_payload(partition))
        return plan.partitions

    def decompose(
        self,
        network,
        regions: list[LineSegment | np.ndarray],
        use_cache: bool = True,
    ) -> list[list[LinearRegion]]:
        """Linear regions of many (normalized) spec regions, in input order.

        ``regions`` entries are what the SyReNN substrate can decompose: a
        :class:`LineSegment`, a ``(k, n)`` polygon vertex array, or a 1-D
        point array (its own linear region).  This is the batched entry
        point :class:`~repro.verify.exact.SyrennVerifier` uses;
        ``use_cache=False`` bypasses the partition cache for this call
        (honoring a verifier's ``cache_partitions=False``) without touching
        what other consumers have cached.
        """
        segment_indices, polygon_indices, point_indices = [], [], []
        for index, region in enumerate(regions):
            if isinstance(region, LineSegment):
                segment_indices.append(index)
            elif np.asarray(region).ndim == 2:
                polygon_indices.append(index)
            else:
                point_indices.append(index)
        # Plan both kinds first, then dispatch them as one batch so line and
        # plane shards overlap across the pool instead of running in phases.
        line_plan = self._plan_lines(
            network, [regions[i] for i in segment_indices], use_cache
        )
        plane_plan = self._plan_planes(
            network, [regions[i] for i in polygon_indices], use_cache
        )
        results = self._gather(line_plan.tasks + plane_plan.tasks)
        line_partitions = self._finish_lines(line_plan, results[: len(line_plan.tasks)])
        plane_partitions = self._finish_planes(plane_plan, results[len(line_plan.tasks) :])

        decomposed: list[list[LinearRegion]] = [[] for _ in regions]
        for i, partition in zip(segment_indices, line_partitions):
            decomposed[i] = [
                LinearRegion(vertices=piece.vertices, interior=piece.interior_point)
                for piece in partition.regions
            ]
        for i, partition in zip(polygon_indices, plane_partitions):
            decomposed[i] = [
                LinearRegion(vertices=piece.input_vertices, interior=piece.interior_point)
                for piece in partition.regions
            ]
        for i in point_indices:
            point = np.asarray(regions[i], dtype=np.float64)
            decomposed[i] = [LinearRegion(vertices=point[None, :], interior=point)]
        return decomposed

    # ------------------------------------------------------------------
    # Sweep API (sampling verifiers)
    # ------------------------------------------------------------------
    def evaluate_batches(self, network, batches: list[np.ndarray]) -> list[np.ndarray]:
        """Network outputs for many point batches, one task per batch."""
        fingerprint, payload = self._payload(network)
        return self._gather([("evaluate", fingerprint, payload, batch) for batch in batches])

    def evaluate_regions(
        self,
        network,
        vertices: np.ndarray,
        activations: np.ndarray,
        *,
        chunk_rows: int = 1024,
    ) -> np.ndarray:
        """Outputs for stacked linear-region vertices with per-row activations.

        This is the batched **value-only re-verification job**: when a
        repair round changed only the value channel, the exact verifier's
        cached decomposition is still valid, and re-verification reduces to
        pushing every cached vertex (paired with its linear region's
        interior point as the pinned activation) through the updated
        network.  ``vertices`` and ``activations`` are ``(k, n)`` stacks
        covering every linear region of the spec; the rows are split into
        ``chunk_rows``-sized tasks so the pool can work on one verification
        pass concurrently, and the merged ``(k, m)`` output preserves row
        order regardless of worker count.
        """
        vertices = np.atleast_2d(np.asarray(vertices, dtype=np.float64))
        activations = np.atleast_2d(np.asarray(activations, dtype=np.float64))
        if activations.shape != vertices.shape:
            raise EngineError("one activation row per vertex row is required")
        fingerprint, payload = self._payload(network)
        tasks = [
            ("evaluate_regions", fingerprint, payload, vertices[start:stop], activations[start:stop])
            for start, stop in chunk_spans(vertices.shape[0], chunk_rows)
        ]
        results = self._gather(tasks)
        if not results:
            return np.zeros((0, network.output_size))
        return np.vstack(results)

    def sample_regions(
        self,
        network,
        regions: list,
        seeds: list[int],
        num_samples: int,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Worker-side sampling + evaluation: ``(points, outputs)`` per region.

        Each region draws from its own derived ``seeds[i]``, so the result
        is a pure function of the seeds — identical at any worker count.
        """
        if len(seeds) != len(regions):
            raise EngineError("one seed per region is required")
        fingerprint, payload = self._payload(network)
        tasks = [
            ("sample", fingerprint, payload, encode_region(region), seed, num_samples)
            for region, seed in zip(regions, seeds)
        ]
        return self._gather(tasks)

    def encode_point_batches(
        self, ddnn, layer_index: int, specs: list
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Repair constraint rows ``(lhs, rhs)`` for many point batches.

        One ``("encode", …)`` task per :class:`~repro.core.specs.PointRepairSpec`
        batch, executed with the shared partition-invariant encoder
        worker-side and merged in input order — the chunk-production shard
        of the out-of-core repair pipeline.  Workers run the exact same
        NumPy code on the exact same arrays as an inline encode, so results
        are byte-identical at any worker count.
        """
        fingerprint, payload = self._payload(ddnn)
        tasks = [
            (
                "encode",
                fingerprint,
                payload,
                int(layer_index),
                spec.points,
                [(constraint.a, constraint.b) for constraint in spec.constraints],
                spec.activation_points,
            )
            for spec in specs
        ]
        return self._gather(tasks)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A JSON-ready snapshot of task, batch and cache counters."""
        return {
            "workers": self.workers,
            "shards_per_region": self.shards_per_region,
            "jobs_executed": self.jobs_executed,
            "batches_dispatched": self.batches_dispatched,
            "cache": self.cache.as_dict() if self.cache is not None else None,
        }


@dataclass
class _Plan:
    """An in-flight decomposition batch: cache hits filled, misses as tasks.

    ``pending`` rows are ``(output index, segment-or-None, cache key,
    task count)``; the plan's tasks occupy one contiguous run of whatever
    batch they are submitted in, so plans for different geometry kinds can
    be dispatched together and finished from their slice of the results.
    """

    cache: PartitionCache | None
    partitions: list
    pending: list = field(default_factory=list)
    tasks: list = field(default_factory=list)


def _encode_plane_payload(partition: PlanePartition) -> dict[str, np.ndarray]:
    payload: dict[str, np.ndarray] = {"count": np.array([partition.num_regions])}
    for index, region in enumerate(partition.regions):
        payload[f"input_{index}"] = region.input_vertices
        payload[f"plane_{index}"] = region.plane_vertices
    return payload


def _decode_plane_payload(payload: dict[str, np.ndarray]) -> PlanePartition:
    count = int(payload["count"][0])
    return PlanePartition(
        regions=[
            PlaneRegion(
                input_vertices=payload[f"input_{index}"],
                plane_vertices=payload[f"plane_{index}"],
            )
            for index in range(count)
        ]
    )
