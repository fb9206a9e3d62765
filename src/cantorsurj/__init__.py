"""Exact computation with continuous nondecreasing surjections of b^w.

Each name is imported from its defining module, for instance
`from cantorsurj.surjections import compose`; the package root only loads
the library modules.
"""

from . import caps, experiments, intervals, points, randgen, similarity, surjections, verify

__all__ = ["caps", "experiments", "intervals", "points", "randgen", "similarity", "surjections", "verify"]
