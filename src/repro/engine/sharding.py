"""Geometry sharding: splitting regions into independent decomposition units.

A SyReNN decomposition is embarrassingly parallel across *regions*, but a
specification can also hand the engine a few very large regions.  Sharding
splits one region into sub-regions whose decompositions are computed
independently (possibly on different worker processes) and merged back
deterministically:

* a :class:`~repro.polytope.segment.LineSegment` splits into ``k`` equal
  sub-segments; merging maps each sub-partition's ratios back into the
  original segment's ratio coordinates and concatenates them in shard
  order, de-duplicating the shared shard boundaries;
* a convex planar polygon splits into fan wedges
  (:func:`repro.polytope.polygon.fan_wedges`); merging concatenates the
  per-wedge linear regions in shard order.

Sharding is a *refinement*: every merged piece lies inside a single linear
region of the network, so exact verification over the merged partition
reaches identical verdicts; shard boundaries may appear as extra
breakpoints.  Crucially the shard layout is a pure function of the geometry
and the shard count — never of the worker count — so any number of workers
produces byte-identical merged output.

The same holds for row sharding: :func:`chunk_spans` cuts a stacked batch
into fixed-size row spans, and :func:`contiguous_spans` recovers the
groups already present in one; both depend only on their input.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import EngineError
from repro.polytope.polygon import fan_wedges
from repro.polytope.segment import LineSegment
from repro.syrenn.line import RATIO_TOLERANCE, LinePartition


def shard_bounds(num_shards: int) -> np.ndarray:
    """The ``num_shards + 1`` ratio boundaries of an equal segment split."""
    if num_shards < 1:
        raise ValueError("num_shards must be positive")
    return np.linspace(0.0, 1.0, num_shards + 1)


def shard_segment(segment: LineSegment, num_shards: int) -> list[LineSegment]:
    """Split a segment into equal sub-segments (vectorized subdivision)."""
    return segment.subdivide(num_shards) if num_shards > 1 else [segment]


def shard_polygon(vertices: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Split a convex polygon into at most ``num_shards`` convex wedges."""
    return fan_wedges(vertices, num_shards) if num_shards > 1 else [np.asarray(vertices)]


def merge_line_partitions(
    segment: LineSegment, shard_ratio_arrays: list[np.ndarray]
) -> LinePartition:
    """Merge per-shard partitions of an equally sharded segment.

    ``shard_ratio_arrays[i]`` holds the local ratios of shard ``i`` of
    :func:`shard_segment`; they are mapped back into the original segment's
    ratio coordinates and concatenated in shard order.  Shared shard
    boundaries (the end of one shard and the start of the next) collapse
    into a single breakpoint.  With one shard this is the identity.
    """
    num_shards = len(shard_ratio_arrays)
    if num_shards == 0:
        raise ValueError("at least one shard partition is required")
    if num_shards == 1:
        return LinePartition(segment=segment, ratios=np.asarray(shard_ratio_arrays[0]))
    bounds = shard_bounds(num_shards)
    global_ratios = np.concatenate(
        [
            bounds[index] + np.asarray(local) * (bounds[index + 1] - bounds[index])
            for index, local in enumerate(shard_ratio_arrays)
        ]
    )
    keep = np.concatenate([[True], np.diff(global_ratios) > RATIO_TOLERANCE])
    return LinePartition(segment=segment, ratios=global_ratios[keep])


def chunk_spans(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, stop)`` spans covering ``range(total)``.

    The engine uses this to split one large batched job (e.g. re-evaluating
    every cached vertex of a specification) into fixed-size tasks: the span
    layout depends only on ``total`` and ``chunk_size`` — never on the
    worker count — so merged results are deterministic.
    """
    if chunk_size < 1:
        raise EngineError("chunk_size must be positive")
    return [(start, min(start + chunk_size, total)) for start in range(0, total, chunk_size)]


def contiguous_spans(ids) -> list[tuple[int, int]]:
    """``(start, stop)`` spans of equal consecutive values in ``ids``.

    The complement of :func:`chunk_spans`: instead of imposing a fixed chunk
    layout, it recovers the natural grouping already present in a stacked
    result (e.g. which rows of a cached vertex stack belong to the same
    linear region).  Like ``chunk_spans`` the output depends only on the
    input sequence, so span-wise consumers stay deterministic at any worker
    count.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return []
    boundaries = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    starts = np.concatenate([[0], boundaries])
    stops = np.concatenate([boundaries, [ids.size]])
    return list(zip(starts.tolist(), stops.tolist()))
