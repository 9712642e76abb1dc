"""The parallel SyReNN/repair execution engine.

* :mod:`repro.engine.engine` — :class:`ShardedSyrennEngine`: sharded,
  cached, multiprocessing-parallel decomposition and sweep jobs, each call
  dispatched as one task batch, with ``workers=1`` preserving exact serial
  behavior.
* :mod:`repro.engine.cache` — :class:`PartitionCache`: an in-memory LRU in
  front of the shared ``REPRO_CACHE_DIR`` disk tier, keyed by
  ``(network fingerprint, geometry digest)``, with per-tier hit/miss/
  eviction statistics.
* :mod:`repro.engine.sharding` — deterministic geometry sharding and
  merging for lines and planes, and deterministic row spans for stacked
  batches.
* :mod:`repro.engine.worker` — spawn-safe worker-side task execution.
"""

from repro.engine.cache import BoundedLru, CacheStats, PartitionCache, TierStats
from repro.engine.engine import ShardedSyrennEngine
from repro.engine.sharding import merge_line_partitions, shard_polygon, shard_segment
from repro.syrenn.regions import LinearRegion, geometry_digest

#: The engine type every ``engine=`` parameter across ``repro.verify`` and
#: ``repro.driver`` is annotated with.  An alias rather than a protocol on
#: purpose: :class:`ShardedSyrennEngine` *is* the engine contract
#: (``decompose`` / ``evaluate_batches`` / ``evaluate_regions`` /
#: ``sample_regions`` / ``stats``), and thin wrappers — like the job
#: daemon's lock-serializing proxy — duck-type it.
Engine = ShardedSyrennEngine

__all__ = [
    "BoundedLru",
    "Engine",
    "CacheStats",
    "LinearRegion",
    "PartitionCache",
    "ShardedSyrennEngine",
    "TierStats",
    "geometry_digest",
    "merge_line_partitions",
    "shard_polygon",
    "shard_segment",
]
