"""Similarity types of point tuples and their lex ranks.

An increasing tuple of eventually-max points determines a binary meet tree:
its leaves are the stems, its internal nodes the longest common prefixes of
neighbouring stems.  A wider base is read through an order-keeping binary
prefix code, whose node depths _node_depths computes from the base-b
stems, at a cost per digit, never writing the code out.  When the tuple is
strongly diagonal (stems form an antichain, meets distinct, all node depths
distinct) the in-order depth ranks of its nodes form its similarity type.
The types over ell leaves are exactly the down-up permutations of
0..2*ell-2 (proof at type_rank), so there are t_ell of them, the ell-th
odd tangent number.

Colors: canonical_coloring maps every increasing tuple to {0..t_ell-1}: a
strongly diagonal tuple gets its type's lex rank among the down-up
permutations, and 0 doubles as the catch-all for non-diagonal tuples.

Scans: scan_types walks a max-set's tuples in lex order down a trie of
the types' level patterns, a leaf at a time, passing whole every prefix
that no type not yet met extends (_walk_diagonal), and every run of
candidates whose meet repeats a depth in one jump (_neighbour_gaps).  A
prefix's node depths are the bits of one int, so the bisect position of a
depth among them is the count of set bits below it.  At the last pick the
first candidate of each leaf depth in a run of one meet stands for the
run: the rest reach the same trie leaf, spent once met.  A walk state
(last pick, depth mask, trie node) walked through once is passed when met
again: live counts only fall, so it reaches no type not met before.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import islice
from math import comb

from . import caps
from .points import Point

__all__ = [
    "tangent_number",
    "TreeType",
    "type_rank",
    "diagonal_levels",
    "enumerate_types",
    "canonical_coloring",
    "scan_types",
    "ScanOutcome",
    "MAX_TYPE_LEAVES",
    "MAX_TANGENT_INDEX",
    "DEFAULT_SCAN_BUDGET",
]

# what lists every type stops here; the census at 7 leaves tops 21M
MAX_TYPE_LEAVES = 6

# tangent_number(830) has 4,298 digits, the most Python prints by default
# (the number at 831 has more); a rank lies below it, so it bounds ranks too
MAX_TANGENT_INDEX = 830

# per-depth combination budget for the type scan: depth 7 at base 2 with
# 3-tuples is C(127,3) = 333,375, the largest level the scan will enter
DEFAULT_SCAN_BUDGET = 400_000


def _boustrophedon_rows():
    """Rows m = 0, 1, ... of the boustrophedon triangle, one at a time:
    D(0, 0) = 1 and D(m, j) = sum of D(m-1, m-1-i) over i < j, j = 0..m.
    D(m, j) counts the down-up permutations of m+1 letters that start with
    the letter of rank j; D(m, m) counts the alternating ones of m letters."""
    row = [1]
    while True:
        yield row
        prev, row = row, [0]
        for j in range(len(prev)):
            row.append(row[-1] + prev[-1 - j])


def tangent_number(n: int) -> int:
    """The n-th odd tangent number (1, 2, 16, 272, 7936, ...): the last
    entry of boustrophedon row 2n-1.  n past MAX_TANGENT_INDEX is refused
    before any row is built."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_TANGENT_INDEX:
        raise ValueError(f"tangent number {n} asked for; tangent numbers stop at {MAX_TANGENT_INDEX}")
    return next(islice(_boustrophedon_rows(), 2 * n - 1, None))[-1]


@dataclass(frozen=True, slots=True)
class TreeType:
    """A similarity type, stored as the in-order depth ranks of its nodes.

    A tuple of ell leaves yields 2*ell-1 nodes in-order: stem, meet, stem,
    ..., stem.  levels[i] is the rank of node i's depth among all nodes.
    The sequences that parse as such a tree are the down-up permutations
    (see type_rank); the dataclass rejects every other.
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        levels, n = self.levels, len(self.levels)
        if n % 2 == 0:
            raise ValueError(f"need an odd number of nodes, got {n}")
        if sorted(levels) != list(range(n)):
            raise ValueError(f"levels must be a permutation of 0..{n - 1}")
        if not all(a > m < c for a, m, c in zip(levels[::2], levels[1::2], levels[2::2])):
            raise ValueError(f"levels {levels} do not form a leaf-rooted meet tree")

    @property
    def leaf_count(self) -> int:
        return (len(self.levels) + 1) // 2


@cache
def type_rank(levels: tuple[int, ...]) -> int:
    """Lex rank of a type's level sequence among all types of its leaf
    count, which is its canonical color.

    Types are the down-up permutations, levels[0] > levels[1] < levels[2]
    > ...: in-order, node 2i is a leaf and node 2i+1 the meet of leaves i
    and i+1, and a leaf extends both meets beside it, so it is deeper.
    Conversely, in a down-up sequence every even position of a window from
    one even position to another has a smaller neighbour inside it, so the
    window's least entry sits at an odd position and parses as its root
    meet, and so on down both halves.

    So the rank counts down-up sequences that first differ below levels at
    some position i: each free letter v < levels[i] that keeps the
    alternation with levels[i-1] is followed by D(m, r) completions, r
    being v's rank among the m+1 letters free at i; at an odd i, where the
    next step goes up, by D(m, m-r), the count for the complement.
    Position i reads row m = n-1-i, so one row sweep serves every position.
    """
    leaves = TreeType(levels).leaf_count
    if leaves > MAX_TANGENT_INDEX:
        raise ValueError(f"{leaves} leaves; types are ranked up to {MAX_TANGENT_INDEX}")
    n, rank = len(levels), 0
    free: list[int] = []  # levels[i:], sorted
    for i, row in zip(range(n - 1, -1, -1), _boustrophedon_rows()):
        insort(free, levels[i])
        below = bisect_left(free, levels[i])
        past = bisect_left(free, levels[i - 1]) if i and i % 2 == 0 else 0
        rank += sum((row if i % 2 == 0 else row[::-1])[past:below])
    return rank


@lru_cache(maxsize=None)
def enumerate_types(leaves: int) -> tuple[TreeType, ...]:
    """All similarity types over `leaves` leaves, that is the down-up
    permutations of 0..2*leaves-2, in lex order.

    The position of a type in this tuple is its canonical color, type_rank.
    """
    if leaves < 1:
        raise ValueError(f"need leaves >= 1, got {leaves}")
    if leaves > MAX_TYPE_LEAVES:
        raise ValueError(f"enumeration capped at {MAX_TYPE_LEAVES} leaves, got {leaves}")
    out: list[TreeType] = []

    def extend(prefix: tuple[int, ...], free: list[int]) -> None:
        if not free:
            out.append(TreeType(prefix))
            return
        split = bisect_left(free, prefix[-1]) if prefix else 0
        for v in free[:split] if len(prefix) % 2 else free[split:]:
            extend(prefix + (v,), [x for x in free if x != v])

    extend((), list(range(2 * leaves - 1)))
    return tuple(out)


def _node_depths(points: tuple[Point, ...]) -> tuple[list[int], list[int]]:
    """lens[k], the depth of leaf k, and gaps[k], the depth at which leaves
    k and k+1 meet, in the binary meet tree of an increasing tuple of
    interior eventually-max points, read off the base-b stems.

    The tree is that of the prefix code sending digit d < top = b-1 to
    1^d 0 and top to 1^top, which keeps order; the code is never written
    out.  Digit d codes to d+1 bits below top and to top bits at top, so
    stem s codes to W(s) = len(s) + sum(s) - s.count(top) bits.
    Neighbours a < c that first differ at n, below both lengths, code
    alike to W(a[:n]), then a[n] < c[n] share a[n] ones: they meet at
    W(a[:n]) + a[n], shallower than both leaves.  Where one stem prefixes
    the other, so does its code: they meet at the shorter stem's own W,
    and are comparable.  At b = 2 every digit weighs 1, and the depths
    are the stem lengths and common prefixes."""
    if not points:
        raise ValueError("empty tuple")
    for p in points:
        if not p.is_q_point:
            raise ValueError(f"{p} is not an interior eventually-max point")
    top, stems = points[0].base - 1, [p.stem for p in points]
    gaps, a = [], stems[0]
    for c in stems[1:]:
        w = 0  # the code length of the digits a and c share so far
        for x, y in zip(a, c):
            if x != y:
                w += x
                break
            w += x + (x != top)
        gaps.append(w)
        a = c
    return [len(s) + sum(s) - s.count(top) for s in stems], gaps


def _classify(lens: list[int], gaps: list[int]) -> tuple[int, ...] | None:
    """In-order level ranks of a tuple with node depths (lens, gaps), or
    None when the tuple is not strongly diagonal.

    Checking prefix-comparability only between neighbours is enough: in
    point order, a stem extending another sits immediately before a point
    of the same subtree, so any comparable pair forces a comparable
    neighbouring pair.  A meet is never deeper than its leaves, so a pair
    is comparable when it meets at one of them.
    """
    depths = [lens[0]]
    for a, m, c in zip(lens, gaps, lens[1:]):
        if m == a or m == c:
            return None
        depths += (m, c)
    if len(set(depths)) != len(depths):
        return None
    return tuple(map(sorted(depths).index, depths))


def _neighbour_gaps(gaps: list[int]) -> list[int]:
    """nxt[k], the first index after k with a smaller gap than gaps[k]
    (len(gaps) when none).

    The meet of leaves i < j is min(gaps[i..j-1]), so gaps[k] for j = k+1
    up to nxt[k].  Read the leaves as their codes x (see _node_depths): a
    stem ends below top, so its code ends in 0, and its point x 1^w tops
    the binary cylinder of x.  If the common prefix c of codes i < j is
    shorter than both, the codes between extend c strictly (else their
    points would pass point j): every gap is at least |c|, and |c| where
    bit |c| goes 0 to 1.  Else code j prefixes code i and all between: no
    gap is below |code j|."""
    nxt, stack = [len(gaps)] * len(gaps), []
    for k, g in enumerate(gaps):
        while stack and gaps[stack[-1]] > g:
            nxt[stack.pop()] = k
        stack.append(k)
    return nxt


class _Node:
    """A pattern in the trie of every type over `leaves` leaves: the
    in-order level ranks of a tuple's first leaves, its children met so
    far, and how many children are live.  A step is keyed by the levels
    (a, c) of the new meet and leaf in the child; every key extends to a
    type, one per a <= q (the new meet is shallower than the last leaf, of
    rank q) and c = a+1..2p (the leaf is deeper than its meet), so a node
    starts with that many; a leaf starts with 1 and is spent when met."""

    __slots__ = ("levels", "parent", "children", "live")

    def __init__(self, levels: tuple[int, ...], leaves: int, parent: "_Node | None" = None) -> None:
        self.levels, self.parent, self.children, q = levels, parent, {}, levels[-1]
        self.live = 1 if len(levels) == 2 * leaves - 1 else (q + 1) * (len(levels) + 1) - q * (q + 1) // 2

    def grow(self, a: int, c: int, leaves: int) -> "_Node":
        """The child whose new meet and leaf take levels a and c."""
        # c - 1 is the leaf's rank among this pattern's depths
        levels = tuple(x + (x >= a) + (x >= c - 1) for x in self.levels) + (a, c)
        child = self.children[a, c] = _Node(levels, leaves, self)
        return child


def _combination_index(picked: list[int], n: int) -> int:
    """Lex index of a combination among combinations(range(n), k): the
    ones before it first differ at some position i, holding a smaller
    element there, C(n - start, k - i) - C(n - c, k - i) of them."""
    k, index, start = len(picked), 0, 0
    for i, c in enumerate(picked):
        index += comb(n - start, k - i) - comb(n - c, k - i)
        start = c + 1
    return index


def _walk_diagonal(lens: list[int], gaps: list[int], leaves: int, root: _Node, found) -> list[int] | None:
    """Walk combinations(range(len(lens)), leaves) in lex order along the
    type trie at `root`, and call found(rank, picked) on the first tuple of
    each type not met before; returns the combination at which found
    returned True, else None.

    A prefix's node depths are carried as a bit mask, depth v at bit v, so
    the rank of v among them (its bisect position) is the count of bits
    below v, and the levels of the next meet and leaf, which key the step
    down the trie, are their ranks in the extended mask.  The depths of a
    prefix are a prefix of the depths of every extension, so a prefix with
    a comparable neighbouring pair (no meet) or a repeated depth fails in
    all of them, and one whose trie child is spent holds no type not met
    before: either way its extensions are passed unclassified.  So the
    tuples found are the first of their types, in the same order as a walk
    that classifies every tuple, and as the passed ones are covered all the
    same, a stop covers its lex index plus 1 combinations and a full walk
    C(n, leaves).

    Candidate j's meet with the last pick i, min(gaps[i..j-1]), is gaps[k]
    for j in the run k+1..nxt[k], along the chain k = i, nxt[i], ...; a
    meet that repeats a depth fails its whole run at once.  At the last
    pick the step's child is a leaf, keyed by the meet and the leaf depth
    alone, and spent once met, so only the first candidate of each depth
    in a run (firsts[k]) can meet a new type.  A walk state (last pick,
    depth mask, trie node) fixes every extension the walk can take from
    it, and live counts only fall, so a state reached again after it was
    walked through holds no type not met before, and is passed."""
    n, nxt = len(lens), _neighbour_gaps(gaps)
    firsts: list[list[int] | None] = [None] * len(gaps)  # built as the runs are met
    picked, last, done = [0] * leaves, leaves - 1, set()

    def extend(pos: int, mask: int, node: _Node) -> bool:
        # picked[:pos] has trie node `node` and its node depths in mask
        if pos == leaves:  # a type met for the first time: spend its leaf
            stop = found(type_rank(node.levels), picked)
            while node is not None:
                node.live -= 1
                node = None if node.live else node.parent
            return stop
        k, top, children = picked[pos - 1], n - leaves + pos, node.children
        while k < top:  # candidates k+1..nxt[k] meet the last pick at gaps[k]
            m = gaps[k]
            if not mask >> m & 1:  # else the whole run repeats a depth
                meet_mask = mask | 1 << m
                a = (meet_mask & ((1 << m) - 1)).bit_count()
                e = nxt[k]
                if pos < last:
                    run = range(k + 1, (e if e < top else top) + 1)
                else:  # a leaf step: the first candidate of each depth stands for the run
                    run = firsts[k]
                    if run is None:  # smaller candidates overwrite a depth's entry
                        run = firsts[k] = sorted(dict(zip(lens[e:k:-1], range(e, k, -1))).values())
                for j in run:
                    leaf = lens[j]
                    if leaf <= m or mask >> leaf & 1:
                        continue
                    depths = meet_mask | 1 << leaf
                    c = (depths & ((1 << leaf) - 1)).bit_count()
                    child = children.get((a, c)) or node.grow(a, c, leaves)
                    if not child.live or (j, depths, child) in done:
                        continue
                    picked[pos] = j
                    if extend(pos + 1, depths, child):
                        return True
                    done.add((j, depths, child))
                    if not node.live:
                        return False
            k = nxt[k]
        return False

    for j in range(n - leaves + 1):
        if not root.live:
            return None
        picked[0] = j
        if extend(1, 1 << lens[j], root):
            return picked
    return None


def diagonal_levels(points: tuple[Point, ...]) -> tuple[int, ...] | None:
    """The type levels of an increasing tuple when it is strongly diagonal,
    else None; raises on a tuple that is not increasing interior q-points.
    Distinct node depths make the meets distinct, so _classify decides it."""
    for i in range(1, len(points)):
        if not points[i - 1] < points[i]:
            raise ValueError("points must be strictly increasing")
    return _classify(*_node_depths(points))


def canonical_coloring(points: tuple[Point, ...], leaves: int) -> int:
    """Total color map on increasing tuples: a strongly diagonal tuple gets
    its type's lex rank among the down-up permutations of 0..2*leaves-2
    (type_rank, its index in enumerate_types), anything else color 0."""
    if len(points) != leaves:
        raise ValueError(f"expected {leaves} points, got {len(points)}")
    levels = diagonal_levels(points)
    return 0 if levels is None else type_rank(levels)


@dataclass(frozen=True, slots=True)
class TypeWitness:
    points: tuple[Point, ...]
    depth: int  # max-set depth at which the scan found it


@dataclass(frozen=True, slots=True)
class ScanOutcome:
    """What an iterative-deepening scan of [h.fingerprint(d)]^ell saw.

    witnesses holds the first tuple found per type index, in construction
    order: depths increase outermost, combinations of the sorted max-set
    innermost.  combos counts the combinations the scan covered: the ones
    classified, and the ones passed as extensions of a prefix that already
    failed or whose types the scan has all met (see _walk_diagonal).
    deepest_full is the largest depth whose combinations were all covered;
    the scan refuses depths whose combination count passes the budget, so
    missing colors beyond that are "unknown", not "absent".
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
    (default: all of them, up to MAX_TYPE_LEAVES leaves) has a witness or
    the cap/budget stops play; one target is the search for one type."""
    depth_cap = caps.depth_cap(depth_cap)
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    if targets is None and leaves > MAX_TYPE_LEAVES:
        raise ValueError(f"a scan for every type is capped at {MAX_TYPE_LEAVES} leaves, got {leaves}")
    want = set(range(tangent_number(leaves))) if targets is None else set(targets)
    root = _Node((0,), leaves)  # shared by every depth, so met types stay spent
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

        def found(r: int, picked: list[int]) -> bool:
            if r not in want:
                return False
            witnesses[r] = TypeWitness(tuple(pts[i] for i in picked), d)
            return want <= witnesses.keys()

        stop = _walk_diagonal(*_node_depths(pts), leaves, root, found)
        if stop is not None:
            return ScanOutcome(witnesses, combos + _combination_index(stop, n) + 1, d, True)
        combos += comb(n, leaves)
        deepest_full = d
    return ScanOutcome(witnesses, combos, deepest_full, want <= witnesses.keys())
