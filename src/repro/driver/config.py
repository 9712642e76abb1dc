"""The declarative, serializable configuration of a repair-driver run.

:class:`DriverConfig` captures every *algorithm* knob of
:class:`~repro.driver.driver.RepairDriver` — mode, layer schedule, margins,
budgets, the incremental/warm-start switches, the LP backend
— as one frozen dataclass that round-trips through JSON.  Runtime resources
(the network, the spec, the verifier, an engine, a pool, a checkpoint path,
a holdout set) deliberately stay out: a config describes *how* to run a
repair, not *what* to repair, which is what lets the same dictionary travel
from a client, through the job daemon's JSON API, into an in-process driver
— and lets a driver run be reproduced from nothing but the job record.

The dataclass validates on construction (the same checks the driver's old
keyword sprawl applied), so a malformed job fails at decode time with a
:class:`~repro.exceptions.RepairError` rather than rounds later — a value of
the wrong type included, never a silent coercion.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, fields

from repro.exceptions import RepairError
from repro.lp.norms import SUPPORTED_NORMS

#: How much every pooled constraint is tightened when building the repair LP,
#: so repaired outputs survive re-verification strictly.
DEFAULT_REPAIR_MARGIN = 1e-6


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(name: str, value) -> int:
    """An integral number as ``int``; integral floats (JSON's ``3.0``) pass."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if _is_number(value) and math.isfinite(value) and value == int(value):
        return int(value)
    raise RepairError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    try:
        if _is_number(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise RepairError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class DriverConfig:
    """Every algorithm knob of a CEGIS driver run, JSON-serializable.

    Parameters mirror :class:`~repro.driver.driver.RepairDriver` (see its
    docstring for semantics).  ``layer_schedule`` is stored as a tuple (the
    dataclass is frozen and hashable); ``None`` means "derive the §7.1
    default from the network" at driver-construction time.

    ``sparse`` has no effect: the LP layer hands every backend the CSR
    standard form.  It is still accepted (``None`` or a boolean) so existing
    configs and job records keep decoding.
    """

    mode: str = "point"
    layer_schedule: tuple[int, ...] | None = None
    repair_margin: float = DEFAULT_REPAIR_MARGIN
    max_rounds: int = 10
    budget_seconds: float | None = None
    incremental: bool = False
    warm_start: bool = True
    max_new_counterexamples: int | None = None
    norm: str = "linf"
    backend: str | None = None
    delta_bound: float | None = None
    sparse: bool | None = None
    memory_budget: int | None = None

    def __post_init__(self) -> None:
        # Normalize before validating so a config built from JSON (lists,
        # ints-as-floats) is indistinguishable from one built in-process.
        if self.layer_schedule is not None:
            try:
                entries = tuple(self.layer_schedule)
            except TypeError as error:
                raise RepairError(
                    f"layer_schedule must be a list of layer indices, got "
                    f"{self.layer_schedule!r}"
                ) from error
            object.__setattr__(
                self,
                "layer_schedule",
                tuple(_integer("layer_schedule entry", index) for index in entries),
            )
        object.__setattr__(self, "repair_margin", _real("repair_margin", self.repair_margin))
        object.__setattr__(self, "max_rounds", _integer("max_rounds", self.max_rounds))
        for name in ("budget_seconds", "delta_bound"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name in ("max_new_counterexamples", "memory_budget"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("incremental", "warm_start", "sparse"):
            value = getattr(self, name)
            if not isinstance(value, bool) and not (name == "sparse" and value is None):
                raise RepairError(f"{name} must be a boolean, got {value!r}")

        if self.mode not in ("point", "polytope"):
            raise RepairError(f'mode must be "point" or "polytope", got {self.mode!r}')
        if self.max_rounds < 1:
            raise RepairError("the driver needs at least one round")
        if self.norm not in SUPPORTED_NORMS:
            raise RepairError(f"norm must be one of {SUPPORTED_NORMS}, got {self.norm!r}")
        if not (math.isfinite(self.repair_margin) and self.repair_margin >= 0.0):
            raise RepairError(
                f"repair_margin must be finite and non-negative, got {self.repair_margin}"
            )
        if self.budget_seconds is not None and not self.budget_seconds >= 0.0:
            raise RepairError(
                f"budget_seconds must be non-negative (or None), got {self.budget_seconds}"
            )
        if self.delta_bound is not None and not (
            math.isfinite(self.delta_bound) and self.delta_bound >= 0.0
        ):
            raise RepairError(
                f"delta_bound must be finite and non-negative (or None), got {self.delta_bound}"
            )
        if self.max_new_counterexamples is not None and self.max_new_counterexamples < 1:
            raise RepairError("max_new_counterexamples must be positive (or None)")
        if self.layer_schedule is not None and len(self.layer_schedule) == 0:
            raise RepairError("the layer schedule is empty")
        if self.memory_budget is not None and self.memory_budget < 1:
            raise RepairError("memory_budget must be positive bytes (or None)")
        if self.backend is not None:
            if not isinstance(self.backend, str):
                raise RepairError(f"backend must be a string, got {self.backend!r}")
            self._validate_backend(self.backend)

    @staticmethod
    def _validate_backend(spec: str) -> None:
        """Reject unknown backend names at decode time, so a job that
        misspells its LP backend fails before round 1.

        Degraded-but-registered backends (``highs_native`` without
        ``highspy``) pass: degradation is a capability, not a config error.
        """
        from repro.exceptions import LPError
        from repro.lp.backends import get_backend

        try:
            get_backend(spec)
        except LPError as error:
            raise RepairError(f"invalid LP backend spec {spec!r}: {error}") from error

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The config as a JSON-ready dictionary (tuples become lists)."""
        payload = dataclasses.asdict(self)
        if payload["layer_schedule"] is not None:
            payload["layer_schedule"] = list(payload["layer_schedule"])
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DriverConfig":
        """Rebuild a config from :meth:`to_dict` output (or hand-written JSON).

        Unknown keys are rejected rather than ignored: a job that misspells
        a knob must fail loudly, not silently run with the default.
        """
        if not isinstance(payload, dict):
            raise RepairError(f"a driver config must be a JSON object, got {payload!r}")
        known = {entry.name for entry in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise RepairError(
                f"unknown driver config keys {sorted(unknown)}; known keys: {sorted(known)}"
            )
        return cls(**payload)

    def replace(self, **changes) -> "DriverConfig":
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)
