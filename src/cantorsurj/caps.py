"""Depth-cap configuration shared by every bounded search."""

__all__ = ["DEFAULT_DEPTH_CAP", "depth_cap"]

DEFAULT_DEPTH_CAP = 64  # depth bound used when a caller passes none


def depth_cap(cap: int | None) -> int:
    """`cap`, or the default when it is None.  A cap below 1 bounds no
    search at all and is refused before any work starts."""
    if cap is None:
        return DEFAULT_DEPTH_CAP
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    return cap
