"""LP solver backends.

Three backends are provided.  Each receives the standard form with CSR
constraint matrices; the simplex densifies them on entry.

``"scipy"``
    scipy's HiGHS solver (dual simplex / interior point).  This is the
    default and is used for all the repair LPs in the experiments.
``"highs_native"``
    The HiGHS C++ solver driven through its own ``highspy`` bindings —
    real basis handles, append-only row growth without re-presolve.  When
    ``highspy`` is not installed the backend degrades to the scipy path
    and says so loudly (log line + ``repro_lp_backend_fallback_total``).
``"simplex"``
    A from-scratch dense two-phase simplex implementation.  It exists so the
    package has no hard algorithmic dependency on scipy's solver, serves as a
    cross-check in the test-suite, and is used in ablation benchmarks.
"""

from __future__ import annotations

from repro.exceptions import LPError
from repro.lp.backends.base import LPBackend
from repro.lp.backends.highs_native import HIGHSPY_AVAILABLE, HighsNativeBackend
from repro.lp.backends.scipy_backend import ScipyBackend
from repro.lp.backends.simplex import SimplexBackend

_BACKENDS: dict[str, type[LPBackend]] = {
    "scipy": ScipyBackend,
    "highs": ScipyBackend,
    "highs_native": HighsNativeBackend,
    "simplex": SimplexBackend,
}

DEFAULT_BACKEND = "scipy"


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`get_backend`."""
    return tuple(sorted(_BACKENDS))


def register_backend(name: str, factory: type[LPBackend]) -> None:
    """Register (or replace) a backend under ``name``.

    This is how the test-suite injects stub backends; production backends
    are registered at import time above.  Names are case-insensitive.
    """
    _BACKENDS[name.lower()] = factory


def unregister_backend(name: str) -> None:
    """Remove a backend registered via :func:`register_backend`."""
    _BACKENDS.pop(name.lower(), None)


def get_backend(name: str | None = None) -> LPBackend:
    """Instantiate a backend by name (``None`` gives the default)."""
    key = (name or DEFAULT_BACKEND).lower()
    if key not in _BACKENDS:
        raise LPError(f"unknown LP backend {name!r}; available: {available_backends()}")
    return _BACKENDS[key]()


def backend_capabilities(name: str | None = None) -> dict[str, object]:
    """Capability probe for one backend name, without running a solve.

    Returns ``{"name", "available", "warm_start_is_exact"}``
    — ``available`` is ``False`` when the backend is degraded because its
    native solver is missing.  The ``requires_highspy`` test marker and the
    CI matrix leg consult this instead of importing ``highspy`` themselves.
    """
    backend = get_backend(name)
    return {
        "name": backend.name,
        "available": bool(getattr(backend, "available", True)),
        "warm_start_is_exact": backend.warm_start_is_exact,
    }


__all__ = [
    "LPBackend",
    "ScipyBackend",
    "SimplexBackend",
    "HighsNativeBackend",
    "HIGHSPY_AVAILABLE",
    "available_backends",
    "backend_capabilities",
    "get_backend",
    "register_backend",
    "unregister_backend",
    "DEFAULT_BACKEND",
]
