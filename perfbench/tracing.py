"""Outside-in layer tracing: spans recorded around each layer's public functions.

The tracer patches functions where their callers look them up (a module
global such as ``repro.verify.exact.transform_plane``, or a class attribute
such as ``LPSession.solve``), records one span per call in memory (name,
start, end, parent) and counts work at the same boundary.  Nothing in the
program changes: uninstalling restores every original attribute.

A span's self time is its duration minus the durations of its direct
children.  Counters are taken only at the outermost span of a name, so a
nested call (``CounterexamplePool.extend`` calling ``add``, a DDNN calling
its own networks) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    parent: Span | None
    thread: int
    outermost: bool
    end: float = 0.0
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


@dataclass
class Tracer:
    """Spans, counters and the patches that produce them."""

    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    fired: Counter = field(default_factory=Counter)
    expected: dict = field(default_factory=dict)
    _patches: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        outermost = all(span.name != name for span in stack)
        span = Span(name, time.perf_counter(), parent, threading.get_ident(), outermost)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        if span.parent is not None:
            span.parent.child_seconds += span.seconds
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- patching ---------------------------------------------------------
    def wrap(self, owner, attribute: str, name: str, workloads: tuple, counter=None) -> None:
        """Record ``owner.attribute`` calls as ``name`` spans.

        ``workloads`` names the workloads on which the wrapper must fire;
        ``counter(tracer, args, result)`` counts work for outermost calls.
        """
        original = getattr(owner, attribute)
        label = f"{getattr(owner, '__name__', owner)}.{attribute}"
        self.expected[label] = workloads

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self.fired[label] += 1
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None and span.outermost:
                counter(self, args, result)
            return result

        self._patch(owner, attribute, traced)

    def wrap_iterator(self, owner, attribute: str, name: str, workloads: tuple, counter) -> None:
        """Record each ``next()`` of ``owner.attribute()``'s iterator as a span.

        A generator's work happens between yields, inside whichever consumer
        pulls it, so every step is its own span nested in that consumer.
        """
        original = owner.__dict__[attribute]
        label = f"{owner.__name__}.{attribute}"
        self.expected[label] = workloads
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.fired[label] += 1
            iterator = iter(original(*args, **kwargs))
            while True:
                span = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                counter(tracer, args, item)
                yield item

        self._patch(owner, attribute, traced)

    def _patch(self, owner, attribute: str, replacement) -> None:
        # An inherited method is shadowed on ``owner`` and later deleted, so
        # the base class never changes.
        own = owner.__dict__ if isinstance(owner, type) else vars(owner)
        self._patches.append((owner, attribute, own.get(attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- results ----------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.counts.clear()
            self.fired.clear()

    def self_seconds(self) -> Counter:
        """Self time per span name over every recorded span."""
        totals: Counter = Counter()
        for span in self.spans:
            totals[span.name] += span.self_seconds
        return totals

    def inclusive_seconds(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name and span.outermost)

    def silent_wrappers(self, workload: str) -> list[str]:
        """Wrappers meant to fire on ``workload`` that never did."""
        return sorted(
            label
            for label, workloads in self.expected.items()
            if workload in workloads and self.fired[label] == 0
        )


# ---------------------------------------------------------------------------
# The layer map: which functions are wrapped, under which span name
# ---------------------------------------------------------------------------
DIRECT = ("acas_planes", "mnist_fog_lines", "squeezenet_rows")
POLYTOPE = ("acas_planes", "mnist_fog_lines")
SERVICE = ("service_jobs_cold", "service_jobs_warm")
SYRENN = POLYTOPE + SERVICE
ALL = DIRECT + SERVICE


def _count_regions(tracer, args, partition) -> None:
    tracer.count("syrenn.calls")
    tracer.count("syrenn.regions", partition.num_regions)


def _count_verify(tracer, args, report) -> None:
    tracer.count("verify.calls")
    tracer.count("verify.value_only", int(bool(getattr(report, "value_only", False))))


def _count_compute(tracer, args, outputs) -> None:
    tracer.count("nn.compute_rows", int(np.atleast_2d(args[1]).shape[0]))


def _count_dense_block(tracer, args, encoded) -> None:
    lhs = encoded[0]
    tracer.count("jacobian.rows", lhs.shape[0])
    tracer.count("jacobian.nnz", int(np.count_nonzero(lhs)))
    tracer.count("jacobian.chunks")


def _count_csr_block(tracer, args, item) -> None:
    block = item[0]
    tracer.count("jacobian.rows", block.shape[0])
    tracer.count("jacobian.nnz", int(block.nnz))
    tracer.count("jacobian.chunks")


def _count_appended(tracer, args, rows) -> None:
    tracer.count("lp.rows", int(rows))


def _count_session_solve(tracer, args, solution) -> None:
    tracer.count("lp.solves")
    tracer.count("lp.iterations", int(solution.iterations or 0))
    tracer.count("lp.warm", int(bool(solution.warm_start_used)))


def _count_cold_solve(tracer, args, solution) -> None:
    tracer.count("lp.rows", int(args[0].num_constraints))
    _count_session_solve(tracer, args, solution)


def _count_admitted(tracer, args, new) -> None:
    tracer.count("driver.pool.offered", len(args[1]) if isinstance(args[1], list) else 1)
    tracer.count("driver.pool.admitted", int(new))


def _count_driver_run(tracer, args, report) -> None:
    tracer.count("driver.rounds", report.num_rounds)
    tracer.count("driver.pool.spilled_entries", args[0].pool.spilled_entries)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer's public entry points; returns ``tracer``."""
    # Modules by name: ``repro.core`` re-exports a function that shadows
    # its ``point_repair`` submodule as an attribute.
    point_repair_module = importlib.import_module("repro.core.point_repair")
    line_module = importlib.import_module("repro.syrenn.line")
    plane_module = importlib.import_module("repro.syrenn.plane")
    exact_module = importlib.import_module("repro.verify.exact")
    from repro.core.ddnn import DecoupledNetwork
    from repro.core.jacobian import JacobianChunkStream
    from repro.driver.driver import RepairDriver
    from repro.driver.pool import CounterexamplePool
    from repro.engine.engine import ShardedSyrennEngine
    from repro.lp.model import LPModel, LPSession
    from repro.nn.network import Network
    from repro.service.daemon import RepairService
    from repro.verify.exact import SyrennVerifier
    from repro.verify.sampling import GridVerifier

    # syrenn: the exact verifier imports the transforms by name; the engine's
    # worker imports them from their modules at call time.
    tracer.wrap(exact_module, "transform_plane", "syrenn", ("acas_planes",), _count_regions)
    tracer.wrap(exact_module, "transform_line", "syrenn", ("mnist_fog_lines",), _count_regions)
    tracer.wrap(plane_module, "transform_plane", "syrenn", SERVICE, _count_regions)
    tracer.wrap(line_module, "transform_line", "syrenn", (), _count_regions)
    tracer.wrap(SyrennVerifier, "verify", "verify", SYRENN, _count_verify)
    tracer.wrap(GridVerifier, "verify", "verify", ("squeezenet_rows",), _count_verify)
    tracer.wrap(Network, "compute", "nn", (), _count_compute)
    tracer.wrap(DecoupledNetwork, "compute", "nn", ALL, _count_compute)
    # jacobian: the in-memory encoders as point_repair looks them up, and
    # every block the out-of-core chunk stream yields.
    tracer.wrap(
        point_repair_module, "encode_constraints_padded", "jacobian", POLYTOPE, _count_dense_block
    )
    tracer.wrap(
        point_repair_module, "encode_constraints_batched", "jacobian", SERVICE,
        _count_dense_block,
    )
    tracer.wrap_iterator(
        JacobianChunkStream, "__iter__", "jacobian", ("squeezenet_rows",), _count_csr_block
    )
    tracer.wrap(LPSession, "append_rows", "lp.assemble", DIRECT, _count_appended)
    tracer.wrap(LPSession, "standard_form", "lp.assemble", DIRECT)
    tracer.wrap(LPModel, "standard_form", "lp.assemble", SERVICE)
    tracer.wrap(LPSession, "solve", "lp.solve", DIRECT, _count_session_solve)
    tracer.wrap(LPModel, "solve", "lp.solve", SERVICE, _count_cold_solve)
    tracer.wrap(RepairDriver, "run", "driver", ALL, _count_driver_run)
    tracer.wrap(CounterexamplePool, "add", "driver.pool", ALL, _count_admitted)
    tracer.wrap(CounterexamplePool, "extend", "driver.pool", ("squeezenet_rows",) + SERVICE,
                _count_admitted)
    tracer.wrap(CounterexamplePool, "point_spec", "driver.pool", ALL)
    tracer.wrap(CounterexamplePool, "unsatisfied", "driver.pool.unsatisfied", ALL)
    tracer.wrap(ShardedSyrennEngine, "decompose", "engine", SERVICE)
    for method in ("transform_lines", "transform_planes", "evaluate_batches", "evaluate_regions"):
        tracer.wrap(ShardedSyrennEngine, method, "engine", ())
    tracer.wrap(RepairService, "_execute", "service", SERVICE)
    return tracer
