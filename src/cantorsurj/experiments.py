"""Coloring experiments over the surjection monoid.

Three strands share this module:

* realization: for a fixed inner surjection h, every color is reachable by
  some outer factor f, found by scanning h's max-set for each type and
  pulling the witness tuple back through h, the one certified witness path;
  realize_all_colors on any map of support 0, which is the identity, and
  oscillation_search read one cached realization per process;
* order-copies and the branch coloring: a finitely described copy of the
  rationals (max-set cut to finitely many clopen pieces) has a derived
  binary tree whose extreme branches split at every depth from the longest
  stem among the piece ends on; comparing their splitting depths is a
  count in closed form, which a one-interval surgery steers to any target;
* colorings with arbitrary labels: a resolution eps fixes a depth k, and
  the oscillation search finds a coloring's exact label set over the
  depth-k fingerprints of the identity cube.

Every clopen piece of such a copy contains a full cell of its surjection
(corollary (ii) of the greedy-cylinder lemma in surjections), so the derived
tree is interval arithmetic on the pieces: a copy is its pieces, and no
cell is searched for.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import caps
from .intervals import MATERIALIZE_LIMIT, ClopenInterval, Surjection, trusted_tuple, validate_level
from .points import Point, interval_successor, json_int, max_point, min_point
from .randgen import increasing_q_points, random_filtering
from .similarity import (
    DEFAULT_SCAN_BUDGET,
    MAX_TYPE_LEAVES,
    canonical_coloring,
    scan_types,
    tangent_number,
)
from .surjections import from_filtering, identity, surjection_from_json, tuple_to_factors

__all__ = [
    "ColorRealization",
    "ExperimentReport",
    "realize_all_colors",
    "QCopy",
    "omega_coloring",
    "WitnessOutcome",
    "build_witness",
    "ColoringSpec",
    "OscillationWitness",
    "OscillationReport",
    "oscillation_search",
    "random_qcopy",
]


# -- realization of every color over a fixed inner surjection -------------


@dataclass(frozen=True, slots=True)
class ColorRealization:
    color: int
    witness: tuple[Point, ...] | None
    depth: int | None  # max-set depth the witness was found at
    verified: bool

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "witness": None if self.witness is None else [p.to_json() for p in self.witness],
            "depth": self.depth,
            "verified": self.verified,
        }


@dataclass(frozen=True, slots=True)
class ExperimentReport:
    base: int
    k: int
    ell: int
    colors: int
    realizations: tuple[ColorRealization, ...]
    combos: int
    deepest_full: int
    depth_cap: int
    complete: bool

    def to_json(self) -> dict:
        return {
            "b": self.base,
            "k": self.k,
            "l": self.ell,
            "t": self.colors,
            "realizations": [r.to_json() for r in self.realizations],
            "combos": self.combos,
            "deepest_full_depth": self.deepest_full,
            "depth_cap": self.depth_cap,
            "complete": self.complete,
        }


def realize_all_colors(
    h: Surjection,
    k: int,
    depth_cap: int | None = None,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> ExperimentReport:
    """Find, for every color r, an outer factor f with the composite f o h
    colored r: one tuple_to_factors batch certifies, for every scan witness
    w, that its composite's fingerprint is w, and w must get color r.  That
    covers the metric ball too: tuple_to_surjection(t) stores t.entries as
    its level k (the slice at d = k is entries[0::1]), so its color is w's.
    Colors whose type never shows up within the cap are reported missing,
    not raised.  A map of support 0 is identity(b) (the greedy rule from
    the whole space gives the cylinder partition), so its report is read
    from _identity_realization, realized once per process."""
    # b^k - 1 >= k, so a k past the leaf cap is refused before b^k is built
    if k > MAX_TYPE_LEAVES or h.base**k - 1 > MAX_TYPE_LEAVES:
        raise ValueError(f"k={k} gives {h.base}^{k} - 1 leaves; types are enumerated up to {MAX_TYPE_LEAVES}")
    depth_cap = caps.depth_cap(depth_cap)
    if h.support == 0:
        return _identity_realization(h.base, k, depth_cap, budget)
    return _realize(h, k, depth_cap, budget)


# keys hold caller-chosen caps and budgets: keep a few; typed, so that a cap
# of 20.0, which the scan refuses, does not read back the entry of 20
@lru_cache(maxsize=16, typed=True)
def _identity_realization(b: int, k: int, depth_cap: int, budget: int) -> ExperimentReport:
    """The realization of identity(b): its rows are the scan's first tuple
    per type, in type order, each certified; no coloring enters it, and a
    report is frozen tuples, so every caller shares it."""
    return _realize(identity(b), k, depth_cap, budget)


def _realize(h: Surjection, k: int, depth_cap: int, budget: int) -> ExperimentReport:
    """realize_all_colors' scan, certificate and check, uncached, for a k
    within the leaf cap and a resolved depth cap."""
    ell = h.base**k - 1
    t = tangent_number(ell)
    outcome = scan_types(h, ell, depth_cap, budget)
    witnesses = [outcome.witnesses.get(r) for r in range(t)]
    # raises unless each composite's fingerprint is its w.points; a witness,
    # b^k - 1 increasing points of h.fingerprint(w.depth), is valid as it is
    tuple_to_factors(h, [trusted_tuple(h.base, k, w.points) for w in witnesses if w is not None])
    rows = []
    for r, w in enumerate(witnesses):
        if w is None:
            rows.append(ColorRealization(r, None, None, False))
            continue
        got = canonical_coloring(w.points, ell)
        if got != r:
            raise RuntimeError(f"realization of color {r} failed verification: composite {got}")
        rows.append(ColorRealization(r, w.points, w.depth, True))
    return ExperimentReport(
        h.base, k, ell, t, tuple(rows), outcome.combos, outcome.deepest_full,
        depth_cap, outcome.complete,
    )


# -- finitely described copies of the rationals ----------------------------


class QCopy:
    """A copy of the rationals cut from a max-set: the base-2 surjection's
    cell maxima restricted to finitely many clopen pieces.

    Pieces are normalized (sorted, overlapping or abutting ones merged).
    Every clopen piece contains a full cell of the surjection (corollary
    (ii) in surjections), which keeps the point set dense in itself
    everywhere it lives, so a copy is its pieces: the map and the pieces
    need only share base 2."""

    __slots__ = ("surjection", "pieces")

    def __init__(self, surjection: Surjection, pieces: tuple[ClopenInterval, ...]):
        if surjection.base != 2:
            raise ValueError(f"surjection is base {surjection.base}; copies are base-2 only")
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("restriction list must be nonempty")
        for p in pieces:
            if p.base != 2:
                raise ValueError(f"restriction {p} is base {p.base}; copies are base-2 only")
        self.surjection = surjection
        self.pieces = _merge_pieces(pieces)

    @classmethod
    def unrestricted(cls, surjection: Surjection) -> "QCopy":
        return cls(surjection, (ClopenInterval.whole(2),))

    def to_json(self) -> dict:
        return {
            "surjection": self.surjection.to_json(),
            "restrictions": [p.to_json() for p in self.pieces],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "QCopy":
        return cls(
            surjection_from_json(obj["surjection"]),
            tuple(ClopenInterval.from_json(p) for p in obj["restrictions"]),
        )

    def __repr__(self) -> str:
        return f"QCopy({self.surjection!r}, {len(self.pieces)} pieces)"


def _merge_pieces(pieces: tuple[ClopenInterval, ...]) -> tuple[ClopenInterval, ...]:
    todo = sorted(pieces, key=lambda p: (p.lo, p.hi))
    out = [todo[0]]
    for nxt in todo[1:]:
        cur = out[-1]
        if cur.hi.is_max or nxt.lo <= interval_successor(cur.hi):
            if cur.hi < nxt.hi:
                out[-1] = ClopenInterval(cur.lo, nxt.hi)
        else:
            out.append(nxt)
    return tuple(out)


def _branch_splits(y: QCopy, prefer: int) -> tuple[tuple[int, ...], int]:
    """Splitting depths on the derived tree's extreme branch that prefers
    child `prefer` (1: the maximum branch, 0: the minimum): those below L,
    the longest stem among the piece ends, and L; every depth from L on
    splits.

    A node is in the tree when its cylinder meets a piece (the overlap
    holds a full cell, corollary (ii) in surjections).  The branch follows
    the digits of the copy's extreme end E, the top of its last piece or
    the bottom of its first: every prefix of E meets E's piece, and the
    merged pieces all lie on one side of E.  So E[:j] splits exactly when
    E's digit j is `prefer` and c = E[:j] + (1 - prefer,) meets a piece.
    An end e != E first differs from E at a depth d(e), and lies beyond c
    (away from E) if d(e) < j, in c if d(e) = j, and between c and E if
    d(e) > j: a piece meets c exactly when d(far end) <= j <= d(near end).

    Past their stems E's digits are all `prefer` and those of the far end
    f of E's piece all 1 - prefer, so d(f) is at most the longer of the two
    stems, and from there on c meets E's piece at every depth.  f is a
    lower end on the maximum branch and an upper end on the minimum one,
    and its stem may be the longer; L runs over every end, so it bounds
    both branches."""
    end = y.pieces[-1].hi if prefer else y.pieces[0].lo
    longest = max(len(e.stem) for p in y.pieces for e in (p.lo, p.hi))

    def differs_at(e: Point) -> int:
        # None for E itself only; L stands in, past every depth tested
        d = end.first_difference(e)
        return longest if d is None else d

    far_near = [(p.lo, p.hi) if prefer else (p.hi, p.lo) for p in y.pieces]
    # both ends of a piece's span grow as the piece nears E, so in order
    # the spans merge by their last end
    merged: list[list[int]] = []
    for a, c in sorted((differs_at(far), differs_at(near)) for far, near in far_near):
        if merged and a <= merged[-1][1] + 1:
            merged[-1][1] = c
        else:
            merged.append([a, c])
    digits = end.prefix(longest)
    below = tuple(j for a, c in merged for j in range(a, min(c + 1, longest)) if digits[j] == prefer)
    return below, longest


def _nth_split(splits: tuple[tuple[int, ...], int], n: int) -> int:
    """Depth of the n-th splitting node (from 0) of a branch's _branch_splits."""
    below, longest = splits
    return below[n] if n < len(below) else longest + n - len(below)


def _splits_below(splits: tuple[tuple[int, ...], int], depth: int) -> int:
    """Number of a branch's splitting nodes shallower than `depth`."""
    below, longest = splits
    return bisect_left(below, depth) + max(0, depth - longest)


def omega_coloring(y: QCopy) -> int:
    """Branch-comparison color of the copy: one less than the number of
    maximum-branch splitting nodes shorter than the second minimum-branch
    splitting node.  Nonnegative, since the branches share their first
    splitting node."""
    return _splits_below(_branch_splits(y, 1), _nth_split(_branch_splits(y, 0), 1)) - 1


@dataclass(frozen=True, slots=True)
class WitnessOutcome:
    copy: QCopy
    target: int
    cut_node: tuple[int, ...]  # t-side node; everything above its cylinder max goes
    keep_node: tuple[int, ...]  # s-side node; everything below its cylinder min goes
    color: int  # re-verified on the returned copy

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "cut_node": list(self.cut_node),
            "keep_node": list(self.keep_node),
            "color": self.color,
            "copy": self.copy.to_json(),
        }


def build_witness(y: QCopy, r: int) -> WitnessOutcome:
    """Cut one open interval out of the copy so the branch color becomes r.

    Take the first minimum-branch splitting node t after the first one with
    at least r+1 maximum-branch splitting nodes shorter, that is deeper
    than the r-th of them; drop everything strictly between t's cylinder
    max and the cylinder min of the maximum-branch splitting node r splits
    shallower than the first one at least as long as t.  The returned copy
    re-verifies to color r.  The cut node lies deeper than r, so a target
    from MATERIALIZE_LIMIT on is refused before any work."""
    if r < 0:
        raise ValueError(f"target must be nonnegative, got {r}")
    if r >= MATERIALIZE_LIMIT:
        raise ValueError(f"target {r} needs a witness node deeper than {r}; over limit {MATERIALIZE_LIMIT}")
    t_splits, s_splits = _branch_splits(y, 0), _branch_splits(y, 1)
    t = _nth_split(t_splits, max(1, _splits_below(t_splits, _nth_split(s_splits, r) + 1)))
    s = _nth_split(s_splits, _splits_below(s_splits, t) - r)
    t0, s0 = y.pieces[0].lo.prefix(t), y.pieces[-1].hi.prefix(s)
    keep_low = ClopenInterval(min_point(2), Point(2, t0, 1))
    keep_high = ClopenInterval(Point(2, s0, 0), max_point(2))
    pieces = []
    for piece in y.pieces:
        for keep in (keep_low, keep_high):
            cut = piece.intersect(keep)
            if cut is not None:
                pieces.append(cut)
    z = QCopy(y.surjection, tuple(pieces))
    color = omega_coloring(z)
    if color != r:
        raise RuntimeError(f"witness verification failed: built color {color}, wanted {r}")
    return WitnessOutcome(z, r, t0, s0, color)


# -- colorings with arbitrary labels and the oscillation search ------------


def _resolution_depth(eps) -> int:
    """The least depth k with 2^{-k} < eps, i.e. floor(log2(1/eps)) + 1,
    exactly: for eps = p/q, the integer 2^k exceeds q/p iff it exceeds q // p."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"resolution must lie in (0, 1], got {eps}")
    return (eps.denominator // eps.numerator).bit_length()


def _fingerprint_key(fp: tuple[Point, ...]) -> str:
    return "|".join("".join(map(str, p.stem)) for p in fp)


def _check_table_key(base: int, depth: int, key: str) -> tuple[Point, ...]:
    """The fingerprint `key` serializes; refuses it unless it decodes to
    b^k - 1 strictly increasing interior q-points whose key is the key
    itself (a stem ending in a top digit would normalize away)."""
    stems = key.split("|")
    # b >= 2, so b^k - 1 stems need k at most their count's bit length;
    # checked before b^k is built
    if depth > len(stems).bit_length() or len(stems) != base**depth - 1:
        raise ValueError(f"table key {key!r}: {len(stems)} stems, not {base}^{depth} - 1")
    try:
        fp = tuple(Point(base, tuple(int(c) for c in stem), base - 1) for stem in stems)
    except ValueError as exc:
        raise ValueError(f"table key {key!r}: {exc}") from exc
    report = validate_level(base, depth, fp)
    if not report.ok:
        raise ValueError(f"table key {key!r}: {report.message}")
    if _fingerprint_key(fp) != key:
        raise ValueError(f"table key {key!r} is not canonical: reads as {_fingerprint_key(fp)!r}")
    return fp


@dataclass(frozen=True, slots=True)
class ColoringSpec:
    """A coloring of surjections that factors through depth-k fingerprints.

    kinds: "relabeled_types" wires each similarity type to a label;
    "table" maps serialized fingerprints to labels with a default for
    misses; "constant" ignores its input.  Only the first and last factor
    through types, so only they are guaranteed at most t_ell labels; a
    table's label set is read off its keys and default."""

    base: int
    depth: int
    colors: int
    kind: str
    relabel: tuple[int, ...] = ()
    table: tuple[tuple[str, int], ...] = ()
    constant: int = 0
    # the table as a dict, built once: a lookup per call keeps searches linear
    _lookup: dict[str, int] = field(init=False, repr=False, compare=False)
    # each table key's fingerprint, in table order, as its check decoded it
    _key_points: tuple[tuple[Point, ...], ...] = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_lookup", dict(self.table))
        if self.kind not in ("relabeled_types", "table", "constant"):
            raise ValueError(f"unknown coloring kind {self.kind!r}")
        if self.colors < 1:
            raise ValueError("need at least one color")
        if self.base < 2 or self.depth < 1:
            raise ValueError(f"need b >= 2 and k >= 1, got b={self.base}, k={self.depth}")
        if self.kind == "relabeled_types":
            # ell >= k, so a k past the leaf cap is refused before b^k is built
            if self.depth > MAX_TYPE_LEAVES or self.ell > MAX_TYPE_LEAVES:
                raise ValueError(
                    f"b={self.base}, k={self.depth}: types are enumerated up to {MAX_TYPE_LEAVES} leaves"
                )
            want = tangent_number(self.ell)
            if len(self.relabel) != want:
                raise ValueError(f"relabel table needs {want} entries, got {len(self.relabel)}")
            bad = [c for c in self.relabel if not 0 <= c < self.colors]
        elif self.kind == "table":
            fps = tuple(_check_table_key(self.base, self.depth, key) for key, _ in self.table)
            object.__setattr__(self, "_key_points", fps)
            bad = [c for _, c in self.table if not 0 <= c < self.colors]
            bad += [] if 0 <= self.constant < self.colors else [self.constant]
        else:
            bad = [] if 0 <= self.constant < self.colors else [self.constant]
        if bad:
            raise ValueError(f"labels out of range: {bad[:4]}")

    @property
    def ell(self) -> int:
        return self.base**self.depth - 1

    def factors_through_types(self) -> bool:
        return self.kind in ("relabeled_types", "constant")

    def color_of(self, fp: tuple[Point, ...]) -> int:
        if self.kind == "constant":
            return self.constant
        if self.kind == "relabeled_types":
            return self.relabel[canonical_coloring(fp, self.ell)]
        return self._lookup.get(_fingerprint_key(fp), self.constant)

    def to_json(self) -> dict:
        out = {"b": self.base, "k": self.depth, "colors": self.colors, "kind": self.kind}
        if self.kind == "relabeled_types":
            out["relabel"] = list(self.relabel)
        elif self.kind == "table":
            out["table"] = {k: v for k, v in self.table}
            out["default"] = self.constant
        else:
            out["value"] = self.constant
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ColoringSpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("table", {}), dict):
            raise ValueError("expected a coloring object whose table maps fingerprint keys to labels")
        return cls(
            kind=obj["kind"],
            base=json_int(obj["b"], "b"),
            depth=json_int(obj["k"], "k"),
            colors=json_int(obj["colors"], "colors"),
            relabel=tuple(json_int(x, "relabel entry") for x in obj.get("relabel", ())),
            table=tuple(sorted((str(k), json_int(v, "table label")) for k, v in obj.get("table", {}).items())),
            constant=json_int(obj.get("value", obj.get("default", 0)), "value"),
        )


@dataclass(frozen=True, slots=True)
class OscillationWitness:
    label: int
    type_index: int | None  # None for a table coloring's candidates
    points: tuple[Point, ...]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "type": self.type_index,
            "points": [p.to_json() for p in self.points],
        }


@dataclass(frozen=True, slots=True)
class OscillationReport:
    regime: str  # always "exact": B is the whole label set on the cube
    base: int
    k: int
    ell: int
    labels: tuple[int, ...]  # the achieved color set B, sorted
    witnesses: tuple[OscillationWitness, ...]
    guaranteed: bool  # True when |B| <= t_ell is forced by factoring through types
    candidates_tried: int  # always 1: the identity cube
    budget: int

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "b": self.base,
            "k": self.k,
            "l": self.ell,
            "labels": list(self.labels),
            "witnesses": [w.to_json() for w in self.witnesses],
            "guaranteed": self.guaranteed,
            "candidates_tried": self.candidates_tried,
            "budget": self.budget,
        }


def oscillation_search(
    spec: ColoringSpec,
    eps,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> OscillationReport:
    """The exact label set B of the coloring on the identity cube of
    composites f o identity, with one certified witness per label.

    Every valid depth-k fingerprint is reached by some composite (corollary
    (i) in surjections), so B is the set of labels over a short candidate
    list: the identity realization's row per type for "relabeled_types",
    the identity's fingerprint for "constant", and for "table" every key
    plus one fingerprint that is no key.  The first candidate of each label
    is its witness, and every candidate is a valid depth-k tuple: a
    certified row, the identity's fingerprint, a key _check_table_key
    validated, or the miss, built valid.  On the identity cube a valid
    tuple is the fingerprint of its own composite (corollary (i)), so a
    witness is certified by its validity alone.  The rows do not depend on
    the coloring: they are the identity's realization at the default depth
    cap, which realize_all_colors shares (_identity_realization), so a
    process realizes each identity cube once."""
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    # the color budget t_ell is not needed here, and is huge for fine eps
    k = _resolution_depth(eps)
    if k != spec.depth:
        raise ValueError(f"coloring reads depth {spec.depth} but resolution {eps} needs depth {k}")
    b, ell = spec.base, spec.ell
    ident = identity(b).fingerprint(k)
    if spec.kind == "relabeled_types":
        rep = _identity_realization(b, k, caps.depth_cap(None), budget)
        if not rep.complete:
            raise RuntimeError("type sweep incomplete within budget; cannot certify the bound")
        # each row's witness has its row's color, so its label is spec.color_of(witness)
        candidates = [(row.color, row.witness, spec.relabel[row.color]) for row in rep.realizations]
    elif spec.kind == "constant":
        candidates = [(canonical_coloring(ident, ell), ident, spec.constant)]
    else:
        # lengthening the first stem by a zero keeps the tuple valid and new,
        # so this stops within len(table) steps
        lookup = spec._lookup
        miss = ident
        while _fingerprint_key(miss) in lookup:
            miss = (Point(b, miss[0].stem + (0,), b - 1),) + miss[1:]
        # a repeated key keeps its last label in the dict, as in color_of
        candidates = [(None, fp, lookup[key]) for (key, _), fp in zip(spec.table, spec._key_points)]
        candidates.append((None, miss, spec.constant))
    labels: dict[int, OscillationWitness] = {}
    for type_index, fp, label in candidates:
        if label not in labels:
            labels[label] = OscillationWitness(label, type_index, fp)
    return OscillationReport(
        "exact", b, k, ell, tuple(sorted(labels)),
        tuple(labels[c] for c in sorted(labels)), spec.factors_through_types(), 1, budget,
    )


# -- seeded copies for the suites ------------------------------------------


def random_qcopy(rng: random.Random) -> QCopy:
    """A random finitely described copy: random filtering of support at most
    3, one to three disjoint clopen pieces with a genuine gap between any
    two."""
    h = from_filtering(random_filtering(rng, 2, rng.randint(0, 3)))
    n = rng.randint(1, 3)
    cuts = increasing_q_points(rng, min_point(2), max_point(2), 2 * n)
    pieces = []
    for i in range(n):
        lo = min_point(2) if i == 0 and rng.random() < 0.5 else interval_successor(cuts[2 * i])
        hi = max_point(2) if i == n - 1 and rng.random() < 0.5 else cuts[2 * i + 1]
        pieces.append(ClopenInterval(lo, hi))
    return QCopy(h, tuple(pieces))
