from functools import lru_cache
import hashlib
from itertools import combinations, permutations
from math import comb

import random
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import diagonal_points, filterings, nested_maps, points, q
from cantorsurj import similarity
from cantorsurj.caps import DEFAULT_DEPTH_CAP
from cantorsurj.points import Point, max_point, min_point
from cantorsurj.randgen import random_filtering, random_surjection
from cantorsurj.similarity import (
    DEFAULT_SCAN_BUDGET,
    MAX_TYPE_LEAVES,
    ScanOutcome,
    TypeWitness,
    TreeType,
    canonical_coloring,
    diagonal_levels,
    enumerate_types,
    scan_types,
    tangent_number,
    type_rank,
    _Node,
    _classify,
    _neighbour_gaps,
    _node_depths,
)
from cantorsurj.surjections import compose, from_filtering, identity


def zigzag(n):
    """Andre's convolution: 2 Z_{m+1} = sum_k C(m,k) Z_k Z_{m-k}."""
    z = [1, 1]
    while len(z) <= n:
        m = len(z) - 1
        z.append(sum(comb(m, k) * z[k] * z[m - k] for k in range(m + 1)) // 2)
    return z[n]


def test_tangent_numbers():
    assert tuple(map(tangent_number, range(1, 7))) == (1, 2, 16, 272, 7936, 353792)
    for ell in range(1, 7):
        assert tangent_number(ell) == zigzag(2 * ell - 1)
    with pytest.raises(ValueError):
        tangent_number(0)


def test_tangent_index_is_bounded_before_any_row(monkeypatch):
    def unreachable():
        raise AssertionError("a boustrophedon row was built")

    monkeypatch.setattr(similarity, "_boustrophedon_rows", unreachable)
    with pytest.raises(ValueError, match=r"tangent numbers stop at 830"):
        tangent_number(similarity.MAX_TANGENT_INDEX + 1)


def test_type_counts():
    for ell in range(1, 5):
        assert len(enumerate_types(ell)) == tangent_number(ell)
    assert [t.levels for t in enumerate_types(2)] == [(1, 0, 2), (2, 0, 1)]


def test_tree_type_validation():
    TreeType((0,))
    TreeType((1, 0, 2))
    TreeType((2, 0, 1))
    for bad in ((0, 1, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (0, 1), (1, 0, 1)):
        with pytest.raises(ValueError):
            TreeType(bad)
    with pytest.raises(ValueError):
        TreeType(tuple(range(2 * MAX_TYPE_LEAVES + 1)))


def _gen_level_sequences(leaves, pool):
    # pool is sorted; the window minimum must be the root meet, and any odd
    # split of the remaining ranks between the two subtrees is realizable
    if leaves == 1:
        return [(pool[0],)]
    root, rest = pool[0], pool[1:]
    out = []
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
def reference_type_index(leaves):
    """Index of each type among the sorted level sequences that parse as
    meet trees, built tree by tree."""
    seqs = sorted(_gen_level_sequences(leaves, tuple(range(2 * leaves - 1))))
    return {s: i for i, s in enumerate(seqs)}


def _window_ok(levels, lo, hi):
    # the window's least level must be an odd (meet) position, recursively
    if lo == hi:
        return True
    m = min(range(lo, hi + 1), key=levels.__getitem__)
    return m % 2 == 1 and _window_ok(levels, lo, m - 1) and _window_ok(levels, m + 1, hi)


@lru_cache(maxsize=None)
def _alternating_completions(free, last, down):
    """Orders of all of `free` after `last` that keep alternating, the
    first step going down when `down`."""
    if not free:
        return 1
    return sum(_alternating_completions(free - {v}, v, not down) for v in free if (v < last) == down)


def reference_rank(levels):
    """Lex rank among down-up permutations, by counting the completions of
    every smaller admissible letter over subsets of free letters."""
    rank, free = 0, frozenset(range(len(levels)))
    for i, x in enumerate(levels):
        for v in free:
            if v < x and (i == 0 or (v < levels[i - 1]) == (i % 2 == 1)):
                rank += _alternating_completions(free - {v}, v, i % 2 == 0)
        free -= {x}
    return rank


def test_enumerate_types_matches_tree_generator():
    for ell in range(1, 6):
        assert [t.levels for t in enumerate_types(ell)] == list(reference_type_index(ell))


def test_type_rank_matches_reference_index():
    for ell in range(1, 6):
        for levels, i in reference_type_index(ell).items():
            assert type_rank(levels) == i == reference_rank(levels)


def test_type_rank_on_a_six_leaf_sample():
    rng, sample = random.Random(6), []
    while len(sample) < 40:
        p = rng.sample(range(11), 11)
        if _window_ok(p, 0, 10):
            sample.append(tuple(p))
    for levels in sample:
        assert type_rank(levels) == reference_rank(levels)


def test_type_rank_ends_at_seven_leaves():
    first = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 12)
    last = (12, 10, 11, 8, 9, 6, 7, 4, 5, 2, 3, 0, 1)
    assert type_rank(first) == 0
    assert type_rank(last) == tangent_number(7) - 1 == 22_368_255
    for bad in ((1, 2, 0), (4, 0, 3, 2, 1), (1, 0)):
        with pytest.raises(ValueError):
            type_rank(bad)


def _ranks(depths):
    return tuple(sorted(depths).index(x) for x in depths)


def test_trie_nodes_count_the_steps_of_every_type():
    # a pattern's live count at creation is the number of distinct next
    # steps among the types extending it, each step keyed by the levels of
    # the next meet and leaf in the pattern one leaf longer
    for ell in range(1, 6):
        steps = {}
        for levels in reference_type_index(ell):
            for p in range(1, ell):
                prefix = levels[: 2 * p - 1]
                steps.setdefault(_ranks(prefix), set()).add(_ranks(levels[: 2 * p + 1])[-2:])
            assert _Node(levels, ell).live == 1
        for pattern, keys in steps.items():
            assert _Node(pattern, ell).live == len(keys), pattern


def test_tree_type_accepts_exactly_the_meet_tree_parses():
    for n in range(1, 8):
        for p in permutations(range(n)):
            try:
                TreeType(p)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == (n % 2 == 1 and _window_ok(p, 0, n - 1)), p


def test_coloring_of_a_seven_leaf_diagonal_tuple():
    levels = (12, 0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6)
    pts = diagonal_points(levels)
    assert diagonal_levels(pts) == levels
    assert canonical_coloring(pts, 7) == type_rank(levels) == reference_rank(levels) == 19_975_536


def _has_type(points) -> bool:
    """Whether diagonal_levels classifies the tuple, sorted; it refuses a
    repeated point as not increasing."""
    try:
        return diagonal_levels(tuple(sorted(points))) is not None
    except ValueError as exc:
        assert str(exc) == "points must be strictly increasing"
        return False


def test_strongly_diagonal():
    assert _has_type((q(0, 0, 0), q(0, 0, 1, 0)))
    assert not _has_type((q(0, 0), q(0)))  # comparable stems
    assert not _has_type((q(0, 0), q(0), q(1, 0)))
    assert not _has_type((q(0, 0), q(1, 0)))  # equal leaf levels


def _diagonal_by_definition(points):
    # all-pairs reference: stems prefix-incomparable, neighbouring meets
    # distinct, all stem and meet depths distinct
    if len(set(points)) != len(points):
        return False
    stems = [p.stem for p in sorted(points)]
    if any(a[: len(c)] == c or c[: len(a)] == a for a, c in combinations(stems, 2)):
        return False
    meets = []
    for a, c in zip(stems, stems[1:]):
        n = 0
        while a[n] == c[n]:
            n += 1
        meets.append(a[:n])
    depths = [len(s) for s in stems] + [len(m) for m in meets]
    return len(set(meets)) == len(meets) and len(set(depths)) == len(depths)


@given(st.lists(st.lists(st.integers(0, 1), max_size=7), min_size=1, max_size=5))
def test_strongly_diagonal_matches_definition(stems):
    points = tuple(Point(2, tuple(s) + (0,), 1) for s in stems)
    assert _has_type(points) == _diagonal_by_definition(points)


def test_similarity_type_goldens():
    pair = (q(0, 0, 0), q(0, 0, 1, 0))
    assert diagonal_levels(pair) == (1, 0, 2)
    # invariant under a common prefix shift and under level stretching
    assert diagonal_levels((q(1, 0, 0, 0), q(1, 0, 0, 1, 0))) == (1, 0, 2)
    assert diagonal_levels((q(0, 0, 0, 0), q(0, 0, 0, 1, 0))) == (1, 0, 2)
    swapped = (q(0, 0, 0, 0), q(0, 1, 0))  # lower point has the deeper stem
    assert diagonal_levels(swapped) == (2, 0, 1)
    assert diagonal_levels((q(0, 0), q(0))) is None  # comparable stems
    with pytest.raises(ValueError, match="strictly increasing"):
        diagonal_levels((q(0), q(0, 0)))


@pytest.mark.parametrize(
    "pts, message",
    [
        ((), "empty tuple"),
        ((q(1), q(0)), "points must be strictly increasing"),
        ((q(0), q(0, 1, base=3)), "cannot compare points of different bases"),
        ((q(0), Point(2, (1,), 0)), "1(0)w is not an interior eventually-max point"),
        ((q(0, base=3), max_point(3)), "^(2)w is not an interior eventually-max point"),
    ],
    ids=["empty", "decreasing", "mixed-bases", "tail-0", "top"],
)
def test_diagonal_levels_refusals(pts, message):
    with pytest.raises(ValueError) as exc:
        diagonal_levels(pts)
    assert str(exc.value) == message


def test_canonical_coloring():
    assert canonical_coloring((q(0, 0, 0), q(0, 0, 1, 0)), 2) == 0
    assert canonical_coloring((q(0, 0, 0, 0), q(0, 1, 0)), 2) == 1
    # non-diagonal tuples land in the catch-all class 0
    assert canonical_coloring((q(0, 0), q(0), q(1, 0)), 3) == 0
    with pytest.raises(ValueError):
        canonical_coloring((q(0),), 2)  # arity mismatch


@given(st.integers(0, 3), st.integers(1, 4), st.integers(0, 4))
def test_coloring_of_diagonal_pairs(shift, x, y):
    # two leaves under a common prefix, branching 0/1, leaf depths offset
    if x == y + 1:
        return  # equal leaf levels: not diagonal
    pre = [1] * shift
    a = q(*pre, 0, *([0] * x))
    b = q(*pre, 1, *([0] * y), 0)
    assert a < b
    want = 0 if len(a.stem) < len(b.stem) else 1
    assert canonical_coloring((a, b), 2) == want


def test_scan_identity_depth2():
    out = scan_types(identity(2), 3)
    assert out.complete
    assert out.deepest_full == 6
    assert sorted(out.witnesses) == list(range(16))
    for label, w in out.witnesses.items():
        assert type_rank(diagonal_levels(w.points)) == label
        assert canonical_coloring(w.points, 3) == label
        assert all(p.stem and len(p.stem) <= w.depth for p in w.points)


def test_scan_targets_subset():
    out = scan_types(identity(2), 3, targets={0, 5})
    assert out.complete and sorted(out.witnesses) == [0, 5]
    # named targets past the leaf cap are ranked; all 22M of them are refused
    seven = type_rank((1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 12))
    out = scan_types(identity(2), 7, targets=frozenset({seven}))
    assert not out.complete and not out.witnesses
    with pytest.raises(ValueError, match="capped at 6 leaves"):
        scan_types(identity(2), 7)


def test_scan_budget_exhaustion():
    out = scan_types(identity(2), 3, budget=50)
    assert not out.complete
    assert out.combos <= 50


def test_scan_four_leaves_on_identity_finds_none():
    # 4 leaves need 7 distinct node depths, so depth 6 at the earliest, and
    # C(63, 4) is over the budget: depths 1-5 are covered and refused after
    out = scan_types(identity(2), 4)
    assert (out.combos, out.deepest_full, out.complete) == (32865, 5, False)
    assert out.witnesses == {}


# -- the binary code written out: the reference for _node_depths ----------


def encode_binary(x):
    """Order-preserving embedding of base-b points into base 2.

    Digit d maps to 1^d 0 for d <= b-2 and the top digit b-1 maps to 1^(b-1);
    this prefix code is strictly increasing digitwise, so lexicographic order
    is preserved.  Only boundary-form points (tail 0 or tail b-1) stay
    eventually constant under the encoding, and only those are accepted.
    """
    b = x.base
    if b == 2:
        return x
    if x.tail not in (0, b - 1):
        raise ValueError(f"tail {x.tail} encodes to a periodic, non-constant binary tail (base {b})")
    out = []
    for d in x.stem:
        if d == b - 1:
            out.extend([1] * (b - 1))
        else:
            out.extend([1] * d)
            out.append(0)
    return Point(2, tuple(out), 1 if x.tail == b - 1 else 0)


def binary_stems(pts):
    """The stems of the points' binary codes, written out."""
    return tuple(encode_binary(p).stem for p in pts)


def lcp_len(a, c):
    n = min(len(a), len(c))
    i = 0
    while i < n and a[i] == c[i]:
        i += 1
    return i


def reference_classify(stems):
    """Level ranks of a point-ordered tuple of binary stems, read off the
    stems themselves, or None when the tuple is not strongly diagonal."""
    lengths = [len(stems[0])]
    for a, c in zip(stems, stems[1:]):
        m = lcp_len(a, c)
        if m == len(a) or m == len(c):
            return None
        lengths += (m, len(c))
    if len(set(lengths)) != len(lengths):
        return None
    return tuple(map(sorted(lengths).index, lengths))


def test_reference_encoder_goldens():
    assert encode_binary(min_point(3)) == min_point(2)
    assert encode_binary(max_point(3)) == max_point(2)
    # base-3 digits 0,1,2 become the prefix code 0, 10, 11
    assert encode_binary(Point(3, (1,), 2)) == Point(2, (1, 0), 1)
    assert encode_binary(Point(3, (2, 0), 0)) == Point(2, (1, 1, 0), 0)
    assert encode_binary(q(0, 1)) == q(0, 1)  # base 2 passes through
    with pytest.raises(ValueError):
        encode_binary(Point(3, (), 1))


@given(points(base=3, max_stem=6), points(base=3, max_stem=6))
def test_reference_encoder_preserves_order(x, y):
    if x.tail in (0, 2) and y.tail in (0, 2):
        assert (x < y) == (encode_binary(x) < encode_binary(y))


@st.composite
def q_point_tuples(draw):
    """An increasing tuple of interior eventually-max points in base 2-7:
    stems hold top digits inside them, and half of them extend an earlier
    stem, so neighbours where one stem prefixes the other are common."""
    b = draw(st.integers(2, 7))
    top, stems = b - 1, []
    for _ in range(draw(st.integers(1, 6))):
        head = draw(st.sampled_from(stems)) if stems and draw(st.booleans()) else ()
        body = draw(st.lists(st.integers(0, top), max_size=4))
        stems.append(head + tuple(body) + (draw(st.integers(0, top - 1)),))
    return tuple(sorted({Point(b, s, top) for s in stems}))


@settings(max_examples=400, deadline=None)
@given(q_point_tuples())
@example((Point(7, (6, 3), 6),))  # one point
@example((Point(7, (6, 5, 6, 0), 6), Point(7, (6, 5), 6)))  # the second stem prefixes the first
@example((Point(7, (2, 6, 0), 6), Point(7, (2, 6, 3, 1), 6), Point(7, (4,), 6)))
def test_node_depths_match_the_written_out_code(pts):
    lens, gaps = _node_depths(pts)
    stems = binary_stems(pts)
    assert lens == [len(s) for s in stems]
    assert gaps == [lcp_len(a, c) for a, c in zip(stems, stems[1:])]
    assert _classify(lens, gaps) == reference_classify(stems)


def reference_scan_types(h, leaves, depth_cap=DEFAULT_DEPTH_CAP, budget=DEFAULT_SCAN_BUDGET, targets=None):
    """scan_types as one loop over combinations: classify every tuple of
    every depth's max-set, in construction order."""
    want = set(range(tangent_number(leaves))) if targets is None else set(targets)
    index = reference_type_index(leaves)
    witnesses = {}
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
        stems = binary_stems(pts)
        for picked in combinations(range(n), leaves):
            combos += 1
            ranks = reference_classify(tuple(stems[i] for i in picked))
            if ranks is None:
                continue
            r = index[ranks]
            if r in want and r not in witnesses:
                witnesses[r] = TypeWitness(tuple(pts[i] for i in picked), d)
                if want <= witnesses.keys():
                    return ScanOutcome(witnesses, combos, d, True)
        deepest_full = d
    return ScanOutcome(witnesses, combos, deepest_full, want <= witnesses.keys())


@st.composite
def scan_inputs(draw):
    b = draw(st.sampled_from([2, 3]))
    h = random_surjection(random.Random(draw(st.integers(0, 2**32 - 1))), b, 3, chain_prob=0.4)
    leaves = draw(st.integers(1, 4))
    t = tangent_number(leaves)
    # a rank outside 0..t-1 is never found, and keeps the scan going
    targets = draw(st.none() | st.frozensets(st.integers(-1, t), max_size=min(t, 4)))
    # counted down, so draws (and shrinks) favour the deepest cap
    deepest = 5 if b == 2 else 3
    depth_cap = deepest - draw(st.integers(0, deepest - 1))
    budget = draw(st.sampled_from([20_000, 1_000, 100, 10]))
    return h, leaves, depth_cap, budget, targets


class _Children(dict):
    """A pattern's children, which may not be read once the pattern is spent."""

    def __init__(self, owner):
        super().__init__()
        self.owner = owner

    def get(self, key, default=None):
        assert self.owner.live, f"spent pattern {self.owner.levels} asked for a child"
        return super().get(key, default)


class _WatchedNode(_Node):
    __slots__ = ()

    def __init__(self, levels, leaves, parent=None):
        super().__init__(levels, leaves, parent)
        self.children = _Children(self)


def _long_stem_filtering():
    return from_filtering(random_filtering(random.Random(185), 7, 2))


def _long_stem_chain():
    # three support-1 base-7 filterings composed; the depth-2 max-set holds 48 points
    rng = random.Random(282)
    h = from_filtering(random_filtering(rng, 7, 1))
    for _ in range(2):
        h = compose(from_filtering(random_filtering(rng, 7, 1)), h)
    return h


def test_long_stem_examples_pass_64_binary_digits():
    # so the scan's depth masks in those examples are multi-word ints
    for h, longest in ((_long_stem_filtering(), 76), (_long_stem_chain(), 68)):
        pts = h.fingerprint(2)
        assert max(_node_depths(pts)[0]) == max(map(len, binary_stems(pts))) == longest


@settings(max_examples=150, deadline=None)
@given(scan_inputs())
# five leaves: nothing fits below depth 8 at base 2 or 3, and identity(6)
# holds its first five-leaf types at depth 2
@example((identity(2), 5, 5, 20_000, frozenset({-1, 0, 3000, 7935, 7936})))
@example((identity(3), 5, 3, DEFAULT_SCAN_BUDGET, frozenset({0, 17, 7935, 9000})))
@example((identity(6), 5, 2, DEFAULT_SCAN_BUDGET, frozenset({544, 550, 560})))
@example((identity(6), 5, 2, DEFAULT_SCAN_BUDGET, frozenset({549, 576, 7936})))
# three leaves over every identity(2) level to depth 6
@example((identity(2), 3, 6, DEFAULT_SCAN_BUDGET, None))
# stems past 64 binary digits at depth 2
@example((_long_stem_filtering(), 3, 2, DEFAULT_SCAN_BUDGET, None))
@example((_long_stem_filtering(), 4, 2, DEFAULT_SCAN_BUDGET, frozenset({-1, 100, 271})))
@example((_long_stem_chain(), 3, 2, DEFAULT_SCAN_BUDGET, frozenset({-1, 5, 15})))
# two leaves over 728 points at depth 6; rank 2 does not exist, so the scan
# runs on after both types are met
@example((identity(3), 2, 6, DEFAULT_SCAN_BUDGET, frozenset({2})))
def test_scan_matches_reference(args):
    with patch.object(similarity, "_Node", _WatchedNode):
        got = scan_types(*args)
    want = reference_scan_types(*args)
    assert got == want
    assert list(got.witnesses) == list(want.witnesses)


def test_search_single_type():
    r = type_rank((1, 0, 2))
    got = scan_types(identity(2), 2, targets=frozenset({r}))
    assert got.complete and list(got.witnesses) == [r]
    assert got.witnesses[r].depth == 2
    assert diagonal_levels(got.witnesses[r].points) == (1, 0, 2)


def test_scan_base3():
    out = scan_types(identity(3), 2, budget=100_000)
    assert out.complete and sorted(out.witnesses) == [0, 1]
    for label, w in out.witnesses.items():
        assert all(p.base == 3 for p in w.points)
        assert canonical_coloring(w.points, 2) == label


def reference_meet_table(stems):
    """The meet table pair by pair: the common prefix of every two stems."""
    table = []
    for i, a in enumerate(stems):
        row = [-1] * len(stems)
        for j in range(i + 1, len(stems)):
            c = stems[j]
            m = lcp_len(a, c)
            if m != len(a) and m != len(c):
                row[j] = m
        table.append(row)
    return table


def meet_table_from_gaps(lens, gaps):
    """reference_meet_table read off the node depths and _neighbour_gaps
    alone: row i holds gaps[k] for j = k+1 up to nxt[k], along the chain
    k = i, nxt[i], ..., save where leaf j is no deeper than that (stem j
    prefixes stem i)."""
    nxt = _neighbour_gaps(gaps)
    table = []
    for i in range(len(lens)):
        row, k = [-1] * len(lens), i
        while k < len(gaps):
            for j in range(k + 1, nxt[k] + 1):
                row[j] = gaps[k] if gaps[k] < lens[j] else -1
            k = nxt[k]
        table.append(row)
    return table


@settings(max_examples=60, deadline=None)
@given(
    filterings(bases=(2, 3, 4, 5), max_support=3).map(from_filtering)
    | nested_maps(bases=(2, 3, 4, 5))
)
def test_meet_rows_from_gaps_match_pairwise_reference(h):
    # the reference writes wider bases out in binary, so their stems run longer
    for d in range(1, 8):
        pts = h.fingerprint(d)
        if len(pts) > 130:
            break
        stems = binary_stems(pts)
        lens, gaps = _node_depths(pts)
        assert gaps == [lcp_len(a, c) for a, c in zip(stems, stems[1:])]
        nxt = _neighbour_gaps(gaps)
        for k, g in enumerate(gaps):
            assert nxt[k] == next((t for t in range(k + 1, len(gaps)) if gaps[t] < g), len(gaps))
        assert meet_table_from_gaps(lens, gaps) == reference_meet_table(stems)


def _outcome_bytes(out):
    witnesses = [(r, w.depth, [(p.base, p.stem, p.tail) for p in w.points]) for r, w in out.witnesses.items()]
    return repr((out.combos, out.deepest_full, out.complete, witnesses)).encode()


def _pinned_scan_cases():
    """identity(b) for b = 2..7 at 1..6 leaves, then 200 seeded random
    filterings and chains in bases 2-4 with targets, caps and budgets."""
    cases = [(identity(b), leaves) for b in range(2, 8) for leaves in range(1, 7)]
    rng = random.Random("scan-pin")
    for _ in range(200):
        b = rng.choice((2, 3, 4))
        h = random_surjection(rng, b, 3, chain_prob=0.4)
        leaves = rng.randint(1, 4)
        t = tangent_number(leaves)
        targets = None if rng.random() < 0.3 else frozenset(rng.randint(-1, t) for _ in range(rng.randint(1, 4)))
        cases.append((h, leaves, rng.randint(1, 20), rng.choice((10, 100, 1_000, 10_000, 50_000)), targets))
    return cases


# sha256 of every outcome above, witnesses in found order, recorded at the
# last commit that scanned with a full meet table
SCAN_OUTCOMES_SHA256 = "4791529b011b0ed6878532fa73b133963a91828923e2c244750d3863a15b7318"


def test_scan_outcomes_are_pinned():
    digest = hashlib.sha256()
    for args in _pinned_scan_cases():
        digest.update(_outcome_bytes(scan_types(*args)))
    assert digest.hexdigest() == SCAN_OUTCOMES_SHA256


def test_two_leaf_scan_builds_no_quadratic_table():
    # type 2 does not exist at two leaves, so the scan runs to the budget:
    # depth 6 holds 728 points, whose C(728, 2) meet table took over 4 MiB
    tracemalloc.start()
    try:
        out = scan_types(identity(3), 2, targets=frozenset({2}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.combos, out.deepest_full, out.complete) == (297303, 6, False)
    assert peak < 1 << 20
