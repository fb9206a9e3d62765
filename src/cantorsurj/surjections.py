"""The monoid of continuous nondecreasing surjections of b^w.

A surjection is represented by its system of cell preimages: the depth-d
boundary tuple lists the maxima of the b^d preimage cells (except the global
maximum).  Everything here is driven by one primitive, boundary_entry(d, i),
so a surjection backed by explicit filtering data and a lazy composition
chain share all derived operations: evaluation, preimages, distance,
factorization.

Composition is kept as a chain and never flattened implicitly; truncate() is
the explicit lossy approximation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .caps import default_depth_cap
from .intervals import (
    MATERIALIZE_LIMIT,
    Filtering,
    cell_chain,
    validate_filtering,
    validate_level,
)
from .points import Dyadic, Point, json_int, max_point, min_point, word_rank

__all__ = [
    "Surjection",
    "FilteringSurjection",
    "ChainSurjection",
    "BoundaryTuple",
    "Evaluation",
    "DistanceResult",
    "FactorizationError",
    "identity",
    "from_filtering",
    "to_filtering",
    "truncate",
    "compose",
    "distance",
    "factor_through",
    "tuple_to_surjection",
    "tuple_to_factor",
    "MATERIALIZE_GUARD",
]

# distance() stops materializing fingerprint levels past this depth and
# falls back to structural comparison
MATERIALIZE_GUARD = 16


@dataclass(frozen=True, slots=True)
class Evaluation:
    """A digit prefix of an image point, with the exact point when known.

    exact is set as soon as the argument hits a cell endpoint: from there on
    the remaining digits are forced (all max after a maximum hit, all zero
    after a minimum hit).
    """

    digits: tuple[int, ...]
    exact: Point | None

    def as_point(self) -> Point:
        if self.exact is None:
            raise ValueError("image not stabilized within the requested digit budget")
        return self.exact


@dataclass(frozen=True, slots=True)
class BoundaryTuple:
    """Depth-k fingerprint: the strictly increasing cell maxima, minus the top."""

    base: int
    depth: int
    entries: tuple[Point, ...]

    def __post_init__(self) -> None:
        report = validate_level(self.base, self.depth, self.entries)
        if not report.ok:
            raise ValueError(report.message)

    def to_json(self) -> dict:
        return {"b": self.base, "depth": self.depth, "entries": [p.to_json() for p in self.entries]}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundaryTuple":
        entries = tuple(Point.from_json(p) for p in obj["entries"])
        return cls(json_int(obj["b"], "b"), json_int(obj["depth"], "depth"), entries)


class Surjection(ABC):
    base: int

    @abstractmethod
    def boundary_entry(self, depth: int, index: int) -> Point:
        """Entry `index` of the depth-`depth` boundary tuple."""

    # -- derived cell geometry -----------------------------------------

    def child_maxima(self, word: tuple[int, ...]) -> tuple[Point, ...]:
        b = self.base
        d = len(word)
        r = word_rank(word, b)
        return tuple(self.boundary_entry(d + 1, r * b + p) for p in range(b - 1))

    def fingerprint(self, depth: int) -> tuple[Point, ...]:
        """All cell maxima down to `depth`, sorted, without the top point.

        By nesting this is also the max-set to that depth: level d's tuple
        contains every shallower tuple as a subsequence.
        """
        count = self.base**depth - 1
        if count > MATERIALIZE_LIMIT:
            raise ValueError(f"depth {depth} fingerprint has {count} entries; over limit")
        return tuple(self.boundary_entry(depth, i) for i in range(count))

    def boundary_tuple(self, depth: int) -> BoundaryTuple:
        return BoundaryTuple(self.base, depth, self.fingerprint(depth))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, x: Point, digits: int) -> Evaluation:
        """First `digits` digits of the image of x; exact point if x hits a
        cell endpoint on the way down (ties go to the lower cell, so a cell
        maximum maps to that cell's image word followed by max digits)."""
        if x.base != self.base:
            raise ValueError("base mismatch")
        b = self.base
        if x.is_max:
            return Evaluation((b - 1,) * digits, max_point(b))
        if x.is_min:
            return Evaluation((0,) * digits, min_point(b))
        word: tuple[int, ...] = ()
        for _, (word, lo, hi) in zip(range(digits), cell_chain(self, x)):
            if x == hi:
                y = Point(b, word, b - 1)
                return Evaluation(y.prefix(digits), y)
            if x == lo:
                y = Point(b, word, 0)
                return Evaluation(y.prefix(digits), y)
        return Evaluation(word, None)

    def preimage_max(self, y: Point) -> Point:
        """Maximum of the preimage of the lower set {x : x <= y}, for y an
        eventually-max point.  Equals the relevant preimage-cell maximum."""
        if y.base != self.base:
            raise ValueError("base mismatch")
        if y.tail != y.base - 1:
            raise ValueError(f"preimage_max needs an eventually-max point, got {y}")
        if y.is_max:
            return y
        depth = len(y.stem)
        return self.boundary_entry(depth, word_rank(y.stem, self.base))

    # -- structure -------------------------------------------------------

    def structurally_equal(self, other: "Surjection") -> bool | None:
        """True when provably equal as infinite objects, None when unknown."""
        if self.base != other.base:
            return False
        if isinstance(self, FilteringSurjection) and isinstance(other, FilteringSurjection):
            d = max(self.filtering.support, other.filtering.support)
            if self.base**d - 1 > MATERIALIZE_LIMIT:
                return None
            # equal data at the deepest stored level forces equality forever:
            # the greedy extension depends only on that level's cells
            return self.filtering.boundary_tuple(d) == other.filtering.boundary_tuple(d)
        if isinstance(self, ChainSurjection) and isinstance(other, ChainSurjection):
            a = self.outer.structurally_equal(other.outer)
            b = self.inner.structurally_equal(other.inner)
            if a and b:
                return True
            return None
        return None

    @abstractmethod
    def to_json(self) -> dict: ...


class FilteringSurjection(Surjection):
    """A surjection given by explicit boundary data plus the greedy extension."""

    __slots__ = ("base", "filtering")

    def __init__(self, filtering: Filtering):
        self.base = filtering.base
        self.filtering = filtering

    def boundary_entry(self, depth: int, index: int) -> Point:
        return self.filtering.boundary_entry(depth, index)

    def child_maxima(self, word: tuple[int, ...]) -> tuple[Point, ...]:
        return self.filtering.child_maxima(word)

    def fingerprint(self, depth: int) -> tuple[Point, ...]:
        return self.filtering.boundary_tuple(depth)

    def to_json(self) -> dict:
        out = self.filtering.to_json()
        out["kind"] = "filtering"
        return out

    def __repr__(self) -> str:
        return f"FilteringSurjection(b={self.base}, support={self.filtering.support})"


class ChainSurjection(Surjection):
    """outer o inner, evaluated lazily and exactly.

    The depth-d preimage cells of the composite are the inner-preimages of
    the outer's cells, so each boundary entry is one preimage_max pull of the
    outer's entry through the inner map.
    """

    __slots__ = ("base", "outer", "inner", "_memo", "_splits")

    def __init__(self, outer: Surjection, inner: Surjection):
        if outer.base != inner.base:
            raise ValueError("base mismatch in composition")
        self.base = outer.base
        self.outer = outer
        self.inner = inner
        self._memo: dict[Point, Point] = {}
        self._splits: dict[tuple[int, ...], tuple[Point, ...]] = {}

    def boundary_entry(self, depth: int, index: int) -> Point:
        y = self.outer.boundary_entry(depth, index)
        got = self._memo.get(y)
        if got is None:
            got = self.inner.preimage_max(y)
            self._memo[y] = got
        return got

    def child_maxima(self, word: tuple[int, ...]) -> tuple[Point, ...]:
        got = self._splits.get(word)
        if got is None:
            got = Surjection.child_maxima(self, word)
            self._splits[word] = got
        return got

    def preimage_max(self, y: Point) -> Point:
        # pulling back through the chain composes the pullbacks
        return self.inner.preimage_max(self.outer.preimage_max(y))

    def to_json(self) -> dict:
        return {
            "b": self.base,
            "kind": "chain",
            "outer": self.outer.to_json(),
            "inner": self.inner.to_json(),
        }

    def __repr__(self) -> str:
        return f"ChainSurjection({self.outer!r} o {self.inner!r})"


def surjection_from_json(obj: dict) -> Surjection:
    kind = obj.get("kind", "filtering")
    if kind == "filtering":
        return FilteringSurjection(Filtering.from_json(obj))
    if kind == "chain":
        return ChainSurjection(surjection_from_json(obj["outer"]), surjection_from_json(obj["inner"]))
    raise ValueError(f"unknown surjection kind {kind!r}")


def identity(base: int) -> FilteringSurjection:
    """The no-data filtering: the greedy rule alone reproduces the standard
    cylinder partition at every depth, which is the identity map."""
    return FilteringSurjection(Filtering(base, ()))


def from_filtering(f: Filtering) -> FilteringSurjection:
    report = validate_filtering(f)
    if not report.ok:
        raise ValueError(f"invalid filtering: {report.message}")
    return FilteringSurjection(f)


def to_filtering(f: Surjection, depth: int) -> Filtering:
    return Filtering(f.base, tuple(f.fingerprint(d) for d in range(1, depth + 1)))


def truncate(f: Surjection, depth: int) -> FilteringSurjection:
    """Materialize depth levels and re-extend canonically.  Lossy for chains:
    the result is within 2^-(depth-1) of f but generally not equal."""
    return FilteringSurjection(to_filtering(f, depth))


def compose(outer: Surjection, inner: Surjection) -> ChainSurjection:
    return ChainSurjection(outer, inner)


@dataclass(frozen=True, slots=True)
class DistanceResult:
    """Exact sup-distance, or a verified-zero token.

    agree_depth is the largest depth whose fingerprints were confirmed equal.
    kind "exact": distance is exactly 2^-agree_depth (first mismatch one
    level deeper).  kind "zero": no mismatch found; certified tells whether
    that covers the full cap ("cap"), was proven structurally for all depths
    ("structural"), or only reaches the materialization guard ("guard").
    """

    kind: str  # "exact" | "zero"
    agree_depth: int
    certified: str = ""

    def dyadic(self) -> Dyadic:
        if self.kind == "exact":
            return Dyadic.two_to(-self.agree_depth)
        return Dyadic.zero()

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.dyadic())
        if self.certified == "guard":
            return f"0 (to depth {self.agree_depth}; equality beyond unverified)"
        return f"0 (to cap {self.agree_depth})"


def distance(f: Surjection, g: Surjection, cap: int | None = None, guard: int = MATERIALIZE_GUARD) -> DistanceResult:
    """Exact sup-metric distance from fingerprint agreement.

    Fingerprints equal exactly at depths 1..m and differing at m+1 give
    distance exactly 2^-m; tuple agreement is downward closed so the scan
    stops at the first mismatching level.
    """
    if f.base != g.base:
        raise ValueError("base mismatch")
    if cap is None:
        cap = default_depth_cap()
    b = f.base
    if isinstance(f, FilteringSurjection) and isinstance(g, FilteringSurjection):
        # stored data determine the whole extension, so agreement at the
        # joint support depth is agreement at every depth
        horizon = min(cap, max(f.filtering.support, g.filtering.support))
        certified = "cap"
    elif f.structurally_equal(g):
        # componentwise-equal chains are equal as maps; skip the deep scan
        return DistanceResult("zero", cap, "structural")
    else:
        while guard > 1 and b**guard - 1 > MATERIALIZE_LIMIT:
            guard -= 1
        horizon = min(cap, guard)
        certified = "cap" if horizon >= cap else "guard"
    for d in range(1, horizon + 1):
        if f.fingerprint(d) != g.fingerprint(d):
            return DistanceResult("exact", d - 1)
    if certified == "guard" and f.structurally_equal(g):
        certified = "structural"
    depth = cap if certified != "guard" else horizon
    return DistanceResult("zero", depth, certified)


class FactorizationError(ValueError):
    def __init__(self, message: str, witness: Point | None = None, depth: int | None = None):
        super().__init__(message)
        self.witness = witness
        self.depth = depth


def _subsample_levels(
    base: int, depth: int, entries: tuple[Point, ...]
) -> tuple[tuple[Point, ...], ...]:
    """Levels 1..depth forced by a depth-`depth` boundary tuple: by nesting,
    depth-d entry i sits at position b^(depth-d) * (i+1) - 1."""
    return tuple(
        tuple(entries[base ** (depth - d) * (i + 1) - 1] for i in range(base**d - 1))
        for d in range(1, depth + 1)
    )


def _image_in_max_set(h: Surjection, x: Point, cap: int) -> Point:
    """Exact image of a point of h's max-set; error with witness otherwise."""
    ev = h.evaluate(x, cap)
    if ev.exact is None:
        raise FactorizationError(
            f"{x} is not a cell maximum of the inner map within depth {cap}", witness=x, depth=cap
        )
    y = ev.exact
    if y.tail != h.base - 1:
        raise FactorizationError(f"{x} maps to {y}, not an eventually-max point", witness=x)
    return y


def factor_through(g: Surjection, h: Surjection, depth: int, cap: int | None = None) -> FilteringSurjection:
    """Find f with g = f o h, on fingerprints to `depth`.

    f's boundaries are the exact h-images of g's boundaries; strict increase
    of the images is automatic because distinct cell maxima of h have
    distinct images.  Raises FactorizationError, with the offending boundary
    point, when some boundary of g is not a boundary of h.
    """
    if g.base != h.base:
        raise ValueError("base mismatch")
    if cap is None:
        cap = default_depth_cap()
    deep = g.fingerprint(depth)
    images = tuple(_image_in_max_set(h, x, cap) for x in deep)
    filt = Filtering(g.base, _subsample_levels(g.base, depth, images))
    report = validate_filtering(filt)
    if not report.ok:
        raise FactorizationError(f"image tuple is not a filtering: {report.message}")
    f = FilteringSurjection(filt)
    if ChainSurjection(f, h).fingerprint(depth) != deep:
        raise FactorizationError("factor verification failed: composed fingerprint differs", depth=depth)
    return f


def tuple_to_surjection(depth: int, t: BoundaryTuple) -> FilteringSurjection:
    """The canonical surjection whose depth-k fingerprint is exactly t.

    Shallower levels are the forced subsamples of t; deeper levels come from
    the greedy extension.
    """
    if t.depth != depth:
        raise ValueError(f"tuple has depth {t.depth}, expected {depth}")
    return from_filtering(Filtering(t.base, _subsample_levels(t.base, depth, t.entries)))


def tuple_to_factor(h: Surjection, t: BoundaryTuple, cap: int | None = None) -> FilteringSurjection:
    """Find f with fingerprint(f o h, k) = t, for t drawn from h's max-set.

    f is the canonical surjection on the h-images of t's entries; composing
    back must reproduce t exactly and is verified before returning.
    """
    if h.base != t.base:
        raise ValueError("base mismatch")
    if cap is None:
        cap = default_depth_cap()
    for x in t.entries:
        if not x.is_q_point:
            raise FactorizationError(f"entry {x} is not an interior eventually-max point", witness=x)
    images = []
    for x in t.entries:
        y = _image_in_max_set(h, x, cap)
        if h.preimage_max(y) != x:
            raise FactorizationError(f"{x} is not in the max-set of the inner map", witness=x)
        images.append(y)
    f = tuple_to_surjection(t.depth, BoundaryTuple(t.base, t.depth, tuple(images)))
    got = ChainSurjection(f, h).fingerprint(t.depth)
    if got != t.entries:
        raise FactorizationError("composed fingerprint does not reproduce the tuple", depth=t.depth)
    return f
