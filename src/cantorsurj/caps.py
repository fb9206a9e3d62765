"""Depth-cap configuration shared by every bounded search."""

import os

__all__ = ["default_depth_cap", "depth_cap"]

_ENV = "RAMSEY_DEPTH_CAP"


def default_depth_cap() -> int:
    """Depth bound used when a caller passes none.  Read from the
    environment on every call so tests and CLI users can override live."""
    raw = os.environ.get(_ENV)
    if raw is None:
        return 64
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{_ENV} must be positive, got {cap}")
    return cap


def depth_cap(cap: int | None) -> int:
    """`cap`, or the default when it is None.  A cap below 1 bounds no
    search at all and is refused before any work starts."""
    if cap is None:
        return default_depth_cap()
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap
