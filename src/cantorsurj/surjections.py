"""The monoid of continuous nondecreasing surjections of b^w.

A surjection (intervals.Surjection) is represented by its system of cell
preimages: the depth-d boundary tuple lists the maxima of the b^d preimage
cells (except the global maximum).  There are two representations, explicit
boundary data (intervals.Filtering) and a lazy composition chain
(ChainSurjection, here), and each gives two primitives: the word-keyed cell
maxima of a batch of words, cell_maxima(words), and a whole level.  A
filtering answers a batch with one shared descent, whose maxima it memoizes
by word.  Every surjection has maps, the flat tuple of its leaf maps,
outer first: a filtering's is itself alone, and a chain's its parts' maps
joined.  A chain answers a batch with the first map's batch and then,
for each later map in turn, one batch for the distinct stems of the maxima
so far, and its level is the first map's level pulled the same way: one
loop, however deep the nesting, and decoding is one loop too
(surjection_from_json).  A chain keeps no memo, so chains over one map
share its memo.
Both share all derived operations: evaluation and fingerprints (in
intervals), distance and factorization (here).
Evaluation, a batch of points at once (evaluate_all), and factor images
read a map's cells through the one point walk (intervals.point_words),
which asks for cell_maxima a depth at a time above the support.
Factorization is one walk and one pull for a batch of boundary tuples,
tuple_to_factors; factor_through calls it on the composite's tuple alone.

Every surjection has a support, a depth from which the greedy rule alone
makes its levels: the stored one (support) bounds the point walk and the
factor images and is the depth to_json writes; the least one
(least_support) is a filtering's stored depth walked back over its greedy
stored levels, and a chain's sum over its maps.  distance stops at the
least supports, and is exact for every representation.
Composition is kept as a chain and never flattened implicitly;
to_filtering(f, d) is lossy below f.support and exact from it on.

The greedy-cylinder lemma (proved in step 1 of ChainSurjection): if h has
support s, every depth-(s+k) cell of h lies in one cylinder of length k.
Two corollaries follow: (i) bounds the factorization walk exactly, and
(ii) justifies the derived tree of a restricted copy (experiments):

(i)  Every interior q-point x = c top^w is a cell maximum of h by depth
     s + |c|: its cell there lies in a length-|c| cylinder holding x, which
     is [c], and x = max [c].  So h's max-set is every interior q-point, and
     evaluate(x, s + |c|) is exact.  tuple_to_factors finds the images of
     every entry of a batch of tuples in one walk of h's cells
     (intervals.point_words), with that bound as each entry's depth limit.
(ii) Every clopen interval [lo, hi] contains a full cell of h by depth
     s + m, m the longer endpoint stem: the cylinder [v], v the first m
     digits of lo, lies in [lo, hi], and the depth-(s+m) cell holding
     max [v] lies in [v].  So a copy's derived tree keeps a node exactly
     when its cylinder meets a piece, and no cell is searched for.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import caps
from .intervals import BoundaryTuple, Filtering, Surjection, point_words, trusted_tuple, validate_filtering
from .points import Dyadic, Point, canonical_points, json_int, point_keys

__all__ = [
    "ChainSurjection",
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
    "tuple_to_factors",
]

_UNSTABLE = "image not stabilized within the requested digit budget"


def _pull(inner: Surjection, ys) -> dict[tuple[int, ...], Point]:
    """The inner cell maximum at the stem of every outer cell maximum y in
    ys, in one cell_maxima call for the distinct stems (the top's is ())."""
    top, stems = inner.base - 1, set()
    for y in ys:
        if y.tail != top:
            raise ValueError(f"a chain pull needs an eventually-max point, got {y}")
        stems.add(y.stem)
    return inner.cell_maxima(stems)


class ChainSurjection(Surjection):
    """outer o inner, evaluated lazily and exactly.

    The chain is the flat tuple of its leaf maps, outer first (maps): every
    surjection has maps, so a chain's is its parts' maps joined, nesting
    costs no recursion, and outer and inner are kept only for to_json.  The
    depth-d preimage cells of f o h are the h-preimages of f's cells, so
    each cell maximum is the maximum of the h-preimage of {x : x <= y}, y
    f's cell maximum: h's cell maximum at y's stem.  A batch of words, and
    a whole level, takes the first map's maxima in one call and pulls them
    through each later map in turn, the distinct stems in one cell_maxima
    call per map (_pull), so shared cells are split once.  The chain keeps
    no memo: a repeated pull, by it or by another chain over the same map,
    is a lookup in that map's cell memo.

    Support: if f splits greedily from depth s_f on and h from s_h on, so
    does f o h from s_f + s_h on.  "Least" is the greedy rule's order on
    q-points (eventually-max points): stem length, then lex.

    1. If a cell's ends first differ at index n, its greedy picks include
       every c i top^w between them (c the common prefix; see
       least_q_point_between), so each child lies in a cylinder of length
       n+1.  So a depth-(s+k) cell of a map greedy from s lies in one
       cylinder of length k, and for a clopen interval D the labelling
       sigma_D of its repeated greedy split (the cell with word w onto [w])
       is an order-isomorphism D -> b^w.  A q-point x = c top^w is the max
       of its cell at every depth > |c| (the cell lies in a cylinder whose
       max is x), so sigma_D maps q-points onto q-points, and the stem
       length of sigma_D(x) is the least depth at which x is a cell max.
    2. Let J be a nonempty open interval with ends in D, k >= 1 the least
       depth of a cell max in J, and g_j the least such max.  Holding no
       depth-(k-1) max, J lies in one depth-(k-1) cell P, and not below the
       pick g_{j-1} of P's split (P's min, no q-point, for j = 0), so J's
       q-points lie in (g_{j-1}, max P), whose least q-point is g_j.  By 1,
       g_j is also sigma_D^{-1} of the least q-point of sigma_D(J).  A split
       is b-1 such picks, so sigma_D^{-1} commutes with greedy splits.  So
       does stripping a prefix v from the points of [v]: stems there, bar
       max [v] (never picked), shorten by |v| and keep their lex order.
    3. A depth-d cell K of f, d >= s_f + s_h, splits greedily and by 1
       lies in some [v] with |v| = s_h.  h is greedy below its cell
       D_v = h^{-1}([v]), so on D_v it is x -> v sigma_{D_v}(x), and by 2
       the preimages of K's children, its children in f o h, are the greedy
       split of h^{-1}(K).  Only where each part turns greedy is used, so
       the supports of the maps add up, stored (support) or least
       (least_support) alike.
    """

    __slots__ = ("base", "outer", "inner", "maps", "support")

    def __init__(self, outer: Surjection, inner: Surjection):
        if outer.base != inner.base:
            raise ValueError("base mismatch in composition")
        self.base = outer.base
        self.outer = outer
        self.inner = inner
        self.maps = outer.maps + inner.maps
        self.support = outer.support + inner.support

    def _pull_all(self, ys) -> list[Point]:
        """The first map's cell maxima ys, pulled through every later map."""
        for h in self.maps[1:]:
            pulled = _pull(h, ys)
            ys = [pulled[y.stem] for y in ys]
        return ys

    def cell_maxima(self, words) -> dict[tuple[int, ...], Point]:
        ys = self.maps[0].cell_maxima(words)
        return dict(zip(ys, self._pull_all(ys.values())))

    def _level(self, depth: int) -> tuple[Point, ...]:
        return tuple(self._pull_all(self.maps[0].fingerprint(depth)))

    def least_support(self) -> int:
        return sum(h.least_support() for h in self.maps)

    def to_json(self) -> dict:
        return {
            "b": self.base,
            "kind": "chain",
            "outer": self.outer.to_json(),
            "inner": self.inner.to_json(),
        }

    def __repr__(self) -> str:
        return f"ChainSurjection({' o '.join(map(repr, self.maps))})"


def surjection_from_json(obj: dict) -> Surjection:
    """Decode a surjection object in one loop over an explicit stack, so the
    JSON parser alone bounds the nesting.  Faults are found in depth-first
    order: a chain's b, its outer part (read, then decoded), its inner part,
    then its b against its parts' base.  Two markers private to the call
    resume the innermost pending chain (chains), so no input matches one."""
    inner_next, join, todo, done, chains = object(), object(), [obj], [], []
    while todo:
        obj = todo.pop()
        if obj is inner_next:
            todo += join, chains[-1][1]["inner"]
        elif obj is join:
            base, inner = chains.pop()[0], done.pop()
            chain = ChainSurjection(done.pop(), inner)
            if chain.base != base:
                raise ValueError(f"chain b {base} but its maps have base {chain.base}")
            done.append(chain)
        elif not isinstance(obj, dict):
            raise ValueError(f"expected a surjection object, got {type(obj).__name__}")
        elif (kind := obj.get("kind", "filtering")) == "filtering":
            done.append(Filtering.from_json(obj))
        elif kind == "chain":
            chains.append((json_int(obj["b"], "chain b"), obj))
            todo += inner_next, obj["outer"]
        else:
            raise ValueError(f"unknown surjection kind {kind!r}")
    return done[0]


def identity(base: int) -> Filtering:
    """The no-data filtering: the greedy rule alone reproduces the standard
    cylinder partition at every depth, which is the identity map."""
    return Filtering(base, ())


def from_filtering(f: Filtering) -> Filtering:
    """f itself, once its stored levels are checked (validate_filtering)."""
    report = validate_filtering(f)
    if not report.ok:
        raise ValueError(f"invalid filtering: {report.message}")
    return f


def to_filtering(f: Surjection, depth: int) -> Filtering:
    """Materialize depth levels and re-extend canonically.  The result is
    within 2^-depth of f, and equal to f when depth >= f.support."""
    return Filtering(f.base, tuple(f.fingerprint(d) for d in range(1, depth + 1)))


def truncate(f: Surjection, depth: int) -> Filtering:
    """to_filtering, kept for perfbench/workloads.py until ROADMAP item 13."""
    return to_filtering(f, depth)


def compose(outer: Surjection, inner: Surjection) -> ChainSurjection:
    return ChainSurjection(outer, inner)


@dataclass(frozen=True, slots=True)
class DistanceResult:
    """Exact sup-distance, for every representation.

    agree_depth is the largest depth whose fingerprints were confirmed equal.
    kind "exact": distance is exactly 2^-agree_depth (first mismatch one
    level deeper).  kind "zero": agree_depth is the cap, and the maps agree
    through it; a cap at or past both supports makes them equal.
    """

    kind: str  # "exact" | "zero"
    agree_depth: int

    def dyadic(self) -> Dyadic:
        return Dyadic(False, -self.agree_depth) if self.kind == "exact" else Dyadic(True)

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.dyadic())
        return f"0 (to cap {self.agree_depth})"


def distance(f: Surjection, g: Surjection, cap: int | None = None, guard: int | None = None) -> DistanceResult:
    """Exact sup-metric distance from fingerprint agreement.

    Fingerprints equal exactly at depths 1..m and differing at m+1 give
    distance exactly 2^-m; tuple agreement is downward closed so the scan
    stops at the first mismatching level.  Past both least supports both
    maps split every cell greedily, so agreement there is agreement at every
    depth: the scan stops at the first agreeing depth at or past them.  The
    least supports are read once depth 1 agrees, so a pair that differs
    there pays for none.
    """
    # guard is accepted for callers written before supports bounded the scan
    if f.base != g.base:
        raise ValueError("base mismatch")
    cap = caps.depth_cap(cap)
    d, last = 1, min(cap, max(f.support, g.support))
    while d <= last:
        if f.fingerprint(d) != g.fingerprint(d):
            return DistanceResult("exact", d - 1)
        if d == 1:
            last = min(last, max(f.least_support(), g.least_support()))
        d += 1
    return DistanceResult("zero", cap)


class FactorizationError(ValueError):
    def __init__(self, message: str, depth: int | None = None):
        super().__init__(message)
        self.depth = depth


def factor_through(g: Surjection, h: Surjection, depth: int) -> Filtering:
    """Find f with g = f o h, on fingerprints to `depth`: the bases are
    checked before any level is built, then tuple_to_factor solves for g's
    depth-`depth` boundary tuple."""
    if g.base != h.base:
        raise ValueError("base mismatch")
    return tuple_to_factor(h, g.boundary_tuple(depth))


def tuple_to_surjection(t: BoundaryTuple) -> Filtering:
    """The canonical surjection whose depth-k fingerprint is exactly t.

    By nesting, depth-d entry i is t's entry b^(k-d) * (i+1) - 1, so level
    d is the slice entries[b^(k-d) - 1 :: b^(k-d)]; deeper levels are
    greedy.  The slices are not validated again, as t was: each holds
    b^d - 1 of t's increasing interior q-points, and they nest, since entry
    b*i + b-1 of level d+1 is t's entry b^(k-d) * (i+1) - 1.
    """
    b, k, entries = t.base, t.depth, t.entries
    levels = tuple(entries[b ** (k - d) - 1 :: b ** (k - d)] for d in range(1, k + 1))
    return Filtering(b, levels)


def tuple_to_factor(h: Surjection, t: BoundaryTuple) -> Filtering:
    """Find f with fingerprint(f o h, k) = t: tuple_to_factors of t alone."""
    return tuple_to_factors(h, (t,))[0]


def tuple_to_factors(h: Surjection, ts) -> list[Filtering]:
    """For each boundary tuple t in the sequence ts, f with
    fingerprint(f o h, t.depth) = t, the canonical surjection on the
    h-images of t's entries: the one factorization walk.  An entry, an
    interior q-point, is a cell maximum of h by depth h.support + len(stem)
    (corollary (i)); one walk (point_words) over the union of the entries,
    keyed by stem and sorted on point_keys, finds each image, the word of
    the shallowest such cell followed by top digits, or refuses with
    evaluate's error past that bound.  One pull of every image tuple
    through h (_pull) checks that each f o h reproduces its t, which
    certifies the images too; the first t that fails raises.  By corollary
    (i) only a map that misstates its support fails there."""
    b = h.base
    if any(t.base != b for t in ts):
        raise ValueError("base mismatch")
    if not ts:
        return []
    xs = ts[0].entries  # one tuple is its own union: ascending, distinct
    if len(ts) > 1:
        union = {x.stem: x for t in ts for x in t.entries}.values()
        xs = [x for _, x in sorted(zip(point_keys(union), union))]
    found = point_words(h, xs, [h.support + len(x.stem) for x in xs])
    if not all(hit for _, hit in found):
        raise ValueError(_UNSTABLE)
    images = [[w for w, _ in found]]
    if len(ts) > 1:
        image = dict(zip([x.stem for x in xs], images[0]))
        images = [[image[x.stem] for x in t.entries] for t in ts]
    # distinct cell maxima x < x' of h are maxima of distinct cells at one
    # depth, so their words, and images, increase: no validation needed
    levels = [tuple(canonical_points(b, ws, b - 1)) for ws in images]
    pulled = _pull(h, (y for ys in levels for y in ys))
    for t, ys in zip(ts, levels):
        if tuple(pulled[y.stem] for y in ys) != t.entries:
            raise FactorizationError("composed fingerprint does not reproduce the tuple", depth=t.depth)
    return [tuple_to_surjection(trusted_tuple(b, t.depth, ys)) for t, ys in zip(ts, levels)]
