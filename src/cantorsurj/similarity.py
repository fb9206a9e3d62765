"""Similarity types of point tuples and the tangent-number census.

An increasing tuple of eventually-max points determines a binary meet tree:
its leaves are the stems, its internal nodes the longest common prefixes of
neighbouring stems.  When the tuple is strongly diagonal (stems form an
antichain, meets distinct, all node depths distinct) the tree's shape,
branch directions, and relative depth order form its similarity type.  The
number of types over ell leaves is the ell-th odd tangent number, and that
count is asserted by tests rather than assumed.

Colors: canonical_coloring maps every increasing tuple to {0..t_ell-1}, the
index of its type in the fixed enumeration order, with 0 doubling as the
catch-all for non-diagonal tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from . import caps
from .points import Point, encode_binary, json_int

__all__ = [
    "tangent_number",
    "tangent_table",
    "TreeType",
    "MeetClosure",
    "ClosureNode",
    "meet_closure",
    "is_strongly_diagonal",
    "similarity_type",
    "enumerate_types",
    "canonical_coloring",
    "search_tuple_of_type",
    "scan_types",
    "TypeSearch",
    "ScanOutcome",
    "MAX_TYPE_LEAVES",
    "DEFAULT_SCAN_BUDGET",
]

# enumerate_types materializes every type; the census at 7 leaves tops 21M
MAX_TYPE_LEAVES = 6

# per-depth combination budget for the type scan: depth 7 at base 2 with
# 3-tuples is C(127,3) = 333,375, the largest level the scan will enter
DEFAULT_SCAN_BUDGET = 400_000


def tangent_table(n: int) -> tuple[int, ...]:
    """First n odd tangent numbers (1, 2, 16, 272, 7936, ...) by the
    boustrophedon sweep: row m of the zigzag triangle ends in the count of
    alternating permutations of m letters, and the odd rows are ours."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: list[int] = []
    row = [1]
    for m in range(1, 2 * n):
        prev = row
        row = [0]
        for j in range(m):
            row.append(row[-1] + prev[m - 1 - j])
        if m % 2 == 1:
            out.append(row[-1])
    return tuple(out)


def tangent_number(k: int) -> int:
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return tangent_table(k)[-1]


@dataclass(frozen=True, slots=True)
class TreeType:
    """A similarity type, stored as the in-order depth ranks of its nodes.

    A tuple of ell leaves yields 2*ell-1 nodes in-order: stem, meet, stem,
    ..., stem.  levels[i] is the rank of node i's depth among all nodes.
    The min-rank node of any subtree window is its root meet; the dataclass
    rejects rank sequences that do not parse as such a tree.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.levels)
        if n % 2 == 0 or n == 0:
            raise ValueError(f"need an odd number of nodes, got {n}")
        if sorted(self.levels) != list(range(n)):
            raise ValueError(f"levels must be a permutation of 0..{n - 1}")
        if not self._window_ok(0, n - 1):
            raise ValueError(f"levels {self.levels} do not form a leaf-rooted meet tree")

    def _window_ok(self, lo: int, hi: int) -> bool:
        if lo == hi:
            return True
        m = min(range(lo, hi + 1), key=self.levels.__getitem__)
        return m % 2 == 1 and self._window_ok(lo, m - 1) and self._window_ok(m + 1, hi)

    @property
    def leaf_count(self) -> int:
        return (len(self.levels) + 1) // 2

    def __lt__(self, other: "TreeType") -> bool:
        return self.levels < other.levels

    def to_json(self) -> dict:
        return {"l": self.leaf_count, "levels": list(self.levels)}

    @classmethod
    def from_json(cls, obj: dict) -> "TreeType":
        t = cls(tuple(json_int(x, "level") for x in obj["levels"]))
        if "l" in obj and json_int(obj["l"], "l") != t.leaf_count:
            raise ValueError(f"leaf count {obj['l']} does not match {t.leaf_count} levels")
        return t


def _gen_level_sequences(leaves: int, pool: tuple[int, ...]) -> list[tuple[int, ...]]:
    # pool is sorted; the window minimum must be the root meet, and any odd
    # split of the remaining ranks between the two subtrees is realizable
    if leaves == 1:
        return [(pool[0],)]
    root, rest = pool[0], pool[1:]
    out: list[tuple[int, ...]] = []
    for left_leaves in range(1, leaves):
        take = 2 * left_leaves - 1
        for chosen in combinations(rest, take):
            taken = set(chosen)
            remain = tuple(x for x in rest if x not in taken)
            for left in _gen_level_sequences(left_leaves, chosen):
                for right in _gen_level_sequences(leaves - left_leaves, remain):
                    out.append(left + (root,) + right)
    return out


@lru_cache(maxsize=None)
def enumerate_types(leaves: int) -> tuple[TreeType, ...]:
    """All similarity types over `leaves` leaves, sorted by level sequence.

    The position of a type in this tuple is its canonical color.
    """
    if leaves < 1:
        raise ValueError(f"need leaves >= 1, got {leaves}")
    if leaves > MAX_TYPE_LEAVES:
        raise ValueError(f"enumeration capped at {MAX_TYPE_LEAVES} leaves, got {leaves}")
    seqs = _gen_level_sequences(leaves, tuple(range(2 * leaves - 1)))
    return tuple(TreeType(s) for s in sorted(seqs))


@lru_cache(maxsize=None)
def _type_index(leaves: int) -> dict[tuple[int, ...], int]:
    return {t.levels: i for i, t in enumerate(enumerate_types(leaves))}


def _binary_stems(points: tuple[Point, ...]) -> tuple[tuple[int, ...], ...]:
    """Stems of the points, as base-2 words; wider bases are encoded first."""
    if not points:
        raise ValueError("empty tuple")
    b = points[0].base
    for p in points:
        if p.base != b:
            raise ValueError("mixed bases in tuple")
        if not p.is_q_point:
            raise ValueError(f"{p} is not an interior eventually-max point")
    if b > 2:
        points = tuple(encode_binary(p) for p in points)
    return tuple(p.stem for p in points)


def _lcp_len(a: tuple[int, ...], c: tuple[int, ...]) -> int:
    n = min(len(a), len(c))
    i = 0
    while i < n and a[i] == c[i]:
        i += 1
    return i


def _ranks(depths: list[int]) -> tuple[int, ...]:
    """Rank of each node depth among all of them; the depths are distinct."""
    return tuple(map(sorted(depths).index, depths))


def _classify(stems: tuple[tuple[int, ...], ...]) -> tuple[int, ...] | None:
    """In-order level ranks of a point-ordered stem tuple, or None when the
    tuple is not strongly diagonal.

    Checking prefix-comparability only between neighbours is enough: in
    point order, a stem extending another sits immediately before a point
    of the same subtree, so any comparable pair forces a comparable
    neighbouring pair.
    """
    lengths = [len(stems[0])]
    for i in range(1, len(stems)):
        a, c = stems[i - 1], stems[i]
        m = _lcp_len(a, c)
        if m == len(a) or m == len(c):
            return None
        lengths.append(m)
        lengths.append(len(c))
    if len(set(lengths)) != len(lengths):
        return None
    return _ranks(lengths)


def _meet_table(stems: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """meet[i][j], for i < j, is the depth of the common prefix of stems i
    and j, or -1 when one stem is a prefix of the other (no tuple holding
    both as neighbours is diagonal)."""
    table = []
    for i, a in enumerate(stems):
        row = [-1] * len(stems)
        for j in range(i + 1, len(stems)):
            c = stems[j]
            m = _lcp_len(a, c)
            if m != len(a) and m != len(c):
                row[j] = m
        table.append(row)
    return table


def _walk_diagonal(
    stems: tuple[tuple[int, ...], ...], leaves: int, visit
) -> tuple[int, bool]:
    """Walk combinations(range(len(stems)), leaves) in order and call
    visit(picked, depths) on each one _classify accepts, with its in-order
    node depths; stop when visit returns True.  Returns the number of
    combinations covered, up to and including the one visit stopped at,
    and whether visit stopped the walk.

    The depths of a prefix are a prefix of the depths of every extension,
    so a prefix with a comparable neighbouring pair or a repeated depth
    fails in all of them: they are counted, not visited.
    """
    n = len(stems)
    lens = [len(s) for s in stems]
    # the caller's budget on C(n, leaves) bounds this C(n, 2) table only
    # from two leaves on; a single leaf has no neighbours to meet
    meet = _meet_table(stems) if leaves > 1 else []
    picked = [0] * leaves
    covered = 0

    def extend(pos: int, start: int, depths: list[int]) -> bool:
        nonlocal covered
        rest = leaves - 1 - pos
        row = meet[picked[pos - 1]] if pos else None
        for j in range(start, n - rest):
            if row is None:
                here = [lens[j]]
            else:
                m = row[j]
                if m < 0 or m in depths or lens[j] in depths:
                    covered += comb(n - 1 - j, rest)
                    continue
                here = depths + [m, lens[j]]
            picked[pos] = j
            if rest:
                if extend(pos + 1, j + 1, here):
                    return True
            else:
                covered += 1
                if visit(picked, here):
                    return True
        return False

    stopped = extend(0, 0, [])
    return covered, stopped


@dataclass(frozen=True, slots=True)
class ClosureNode:
    word: tuple[int, ...]
    kind: str  # "stem" | "meet" | "both"
    parent: int  # index of the longest proper prefix in the closure, -1 at root
    direction: int  # digit following the parent's word, -1 at root

    @property
    def level(self) -> int:
        return len(self.word)


@dataclass(frozen=True, slots=True)
class MeetClosure:
    """Stems of a base-2 tuple together with all pairwise common prefixes,
    in level order, each node linked to its longest proper prefix."""

    nodes: tuple[ClosureNode, ...]

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        return tuple(n.word for n in self.nodes)


def meet_closure(points: tuple[Point, ...]) -> MeetClosure:
    """Closure of the points' stems under pairwise longest common prefix.

    The pairwise closure equals the closure under neighbouring meets of the
    sorted tuple, so only those are formed.  Duplicate points are an error;
    prefix-comparable stems are allowed here (a node may be stem and meet
    at once) since diagonality is a separate predicate.
    """
    if len(set(points)) != len(points):
        raise ValueError("duplicate points")
    pts = tuple(sorted(points))
    stems = _binary_stems(pts)
    words: dict[tuple[int, ...], str] = {}
    for s in stems:
        words[s] = "stem"
    for i in range(1, len(stems)):
        m = stems[i - 1][: _lcp_len(stems[i - 1], stems[i])]
        if m in words:
            if words[m] == "stem":
                words[m] = "both"
        else:
            words[m] = "meet"
    ordered = sorted(words, key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(ordered)}
    nodes = []
    for w in ordered:
        parent, direction = -1, -1
        for cut in range(len(w) - 1, -1, -1):
            if w[:cut] in index:
                parent = index[w[:cut]]
                direction = w[cut]
                break
        nodes.append(ClosureNode(w, words[w], parent, direction))
    return MeetClosure(tuple(nodes))


def is_strongly_diagonal(points: tuple[Point, ...]) -> bool:
    """Stems pairwise prefix-incomparable, neighbouring meets pairwise
    distinct, and all 2*ell-1 closure nodes at pairwise distinct depths.

    Distinct depths make the meets distinct, and _classify's neighbour test
    covers all pairs, so this is exactly "_classify finds a type"."""
    if len(set(points)) != len(points):
        return False
    return _classify(_binary_stems(tuple(sorted(points)))) is not None


def similarity_type(points: tuple[Point, ...]) -> TreeType:
    """The type of a strongly diagonal tuple; raises on anything else."""
    pts = tuple(sorted(points))
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    ranks = _classify(_binary_stems(pts))
    if ranks is None:
        raise ValueError("tuple is not strongly diagonal")
    return TreeType(ranks)


def canonical_coloring(points: tuple[Point, ...], leaves: int) -> int:
    """Total color map on increasing tuples: a strongly diagonal tuple gets
    its type's index in enumerate_types(leaves), anything else color 0."""
    if len(points) != leaves:
        raise ValueError(f"expected {leaves} points, got {len(points)}")
    for i in range(1, leaves):
        if not points[i - 1] < points[i]:
            raise ValueError("points must be strictly increasing")
    ranks = _classify(_binary_stems(points))
    if ranks is None:
        return 0
    return _type_index(leaves)[ranks]


@dataclass(frozen=True, slots=True)
class TypeWitness:
    points: tuple[Point, ...]
    depth: int  # max-set depth at which the scan found it


@dataclass(frozen=True, slots=True)
class ScanOutcome:
    """What an iterative-deepening scan of [h.fingerprint(d)]^ell saw.

    witnesses holds the first tuple found per type index, in construction
    order: depths increase outermost, combinations of the sorted max-set
    innermost.  combos counts the combinations the scan covered, each one
    either classified or counted as an extension of a prefix that already
    failed.  deepest_full is the largest depth whose combinations were all
    covered; the scan refuses depths whose combination count passes the
    budget, so missing colors beyond that are "unknown", not "absent".
    """

    witnesses: dict[int, TypeWitness]
    combos: int
    deepest_full: int
    complete: bool


def scan_types(
    h,
    leaves: int,
    depth_cap: int | None = None,
    budget: int = DEFAULT_SCAN_BUDGET,
    targets: frozenset[int] | None = None,
) -> ScanOutcome:
    """Classify tuples from h's max-set, deepening until every target type
    (default: all of them) has a witness or the cap/budget stops play."""
    depth_cap = caps.depth_cap(depth_cap)
    want = set(range(tangent_number(leaves))) if targets is None else set(targets)
    index = _type_index(leaves)
    witnesses: dict[int, TypeWitness] = {}
    combos = 0
    deepest_full = 0
    for d in range(1, depth_cap + 1):
        pts = h.fingerprint(d)
        n = len(pts)
        if n < leaves:
            deepest_full = d
            continue
        if comb(n, leaves) > budget:
            break

        def visit(picked: list[int], depths: list[int]) -> bool:
            r = index[_ranks(depths)]
            if r in want and r not in witnesses:
                witnesses[r] = TypeWitness(tuple(pts[i] for i in picked), d)
                return want <= witnesses.keys()
            return False

        covered, stopped = _walk_diagonal(_binary_stems(pts), leaves, visit)
        combos += covered
        if stopped:
            return ScanOutcome(witnesses, combos, d, True)
        deepest_full = d
    return ScanOutcome(witnesses, combos, deepest_full, want <= witnesses.keys())


@dataclass(frozen=True, slots=True)
class TypeSearch:
    found: tuple[Point, ...] | None
    depth: int  # depth found at, else deepest fully scanned depth
    combos: int
    exhausted: bool  # True when the cap or budget ended the scan unfound


def search_tuple_of_type(
    h,
    tree_type: TreeType,
    depth_cap: int | None = None,
    budget: int = DEFAULT_SCAN_BUDGET,
) -> TypeSearch:
    """First tuple from h's max-set realizing the type, in construction
    order (depths outermost, sorted-tuple combinations innermost)."""
    leaves = tree_type.leaf_count
    r = _type_index(leaves)[tree_type.levels]
    out = scan_types(h, leaves, depth_cap, budget, targets=frozenset({r}))
    if r in out.witnesses:
        w = out.witnesses[r]
        return TypeSearch(w.points, w.depth, out.combos, False)
    return TypeSearch(None, out.deepest_full, out.combos, True)
