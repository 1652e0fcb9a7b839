"""Compatibility seam for callers of the removed native engine.

The numba inner-loop kernels are gone; every exact run uses the numpy
engine.  Callers written against the old engine selector keep working
through the two names below: ``"auto"`` and ``"numpy"`` resolve to
``"numpy"``, anything else is rejected.
"""

from __future__ import annotations

from repro.exceptions import InvalidConfigurationError

__all__ = ["NATIVE_AVAILABLE", "resolve_engine"]

#: Native kernels no longer exist, so they are never available.
NATIVE_AVAILABLE = False


def resolve_engine(engine: str) -> str:
    """Map a legacy engine selector to the one engine, ``"numpy"``."""
    if engine in ("auto", "numpy"):
        return "numpy"
    raise InvalidConfigurationError(
        f"engine {engine!r} was removed; only 'auto' and 'numpy' are accepted, "
        "and both run the numpy engine"
    )
