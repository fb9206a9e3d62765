import json
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import cell_child_maxima, child_bounds, nested_maps, q, rank_word, reference_cell_chain
import cantorsurj.caps as caps
import cantorsurj.experiments as experiments
import cantorsurj.intervals as intervals
from cantorsurj.experiments import (
    ColoringSpec,
    QCopy,
    _branch_splits,
    _fingerprint_key,
    _nth_split,
    _splits_below,
    build_witness,
    omega_coloring,
    oscillation_search,
    random_qcopy,
    realize_all_colors,
)
from cantorsurj.intervals import MATERIALIZE_LIMIT, BoundaryTuple, ClopenInterval, Filtering
from cantorsurj.points import Point, interval_successor, max_point, min_point
from cantorsurj.randgen import derive_rng, increasing_q_points, random_filtering
from cantorsurj.similarity import DEFAULT_SCAN_BUDGET, canonical_coloring, scan_types, tangent_number
from cantorsurj.surjections import ChainSurjection, compose, from_filtering, identity, tuple_to_factor


def test_find_cell_within_identity():
    e = identity(2)
    assert reference_find_cell_within(e, ClopenInterval.whole(2)) == ()
    assert reference_find_cell_within(e, ClopenInterval(min_point(2), q(0))) == (0,)
    assert reference_find_cell_within(e, ClopenInterval(Point(2, (1,), 0), max_point(2))) == (1,)
    iv = ClopenInterval(Point(2, (0, 1, 1), 0), q(1, 0, 0))
    word = reference_find_cell_within(e, iv)  # found by depth 3, the longer endpoint stem
    assert word is not None and len(word) <= 3 and Point(2, word, 0) >= iv.lo


def _cell(h, word):
    lo, hi = min_point(h.base), max_point(h.base)
    for i, digit in enumerate(word):
        lo, hi = child_bounds(cell_child_maxima(h, word[:i]), lo, hi, digit)
    return ClopenInterval(lo, hi)


@st.composite
def clopen_intervals(draw, base):
    # lo eventually 0, hi eventually top, stems short enough to stay cheap
    top, n = base - 1, 5 if base == 2 else 3
    lo = Point(base, tuple(draw(st.lists(st.integers(0, top), max_size=n))), 0)
    hi = Point(base, tuple(draw(st.lists(st.integers(0, top), max_size=n))), top)
    assume(lo < hi)
    return ClopenInterval(lo, hi)


@settings(max_examples=150)
@given(nested_maps(), st.data())
def test_find_cell_within_default_bound_never_misses(h, data):
    # corollary (ii): h.support plus the longer endpoint stem always suffices
    interval = data.draw(clopen_intervals(h.base))
    word = reference_find_cell_within(h, interval)
    assert word is not None
    cell = _cell(h, word)
    assert interval.lo <= cell.lo and cell.hi <= interval.hi


def reference_find_cell_within(h, interval, depth_bound=None):
    """Word of some cell of h inside the interval, or None: a lockstep walk
    of the two ends' cell chains, with Point cell ends, to depth_bound (by
    default h.support plus the longer endpoint stem, the depth corollary
    (ii) in surjections proves enough)."""
    if depth_bound is None:
        depth_bound = h.support + max(len(interval.lo.stem), len(interval.hi.stem))
    b, lo, hi = h.base, interval.lo, interval.hi
    if lo == min_point(b) and hi.is_max:
        return ()
    child_maxima = lambda word: cell_child_maxima(h, word)
    chain_lo, chain_hi = reference_cell_chain(child_maxima, b, lo), reference_cell_chain(child_maxima, b, hi)
    rl = rh = 0
    for d, (wl, alo, ahi), (wh, _, bhi) in zip(range(1, depth_bound + 1), chain_lo, chain_hi):
        rl, rh = rl * b + wl[-1], rh * b + wh[-1]
        if wl == wh:
            if alo == lo and ahi == hi:
                return wl
            continue
        if alo == lo:
            return wl
        if bhi == hi:
            return wh
        if rh - rl >= 2:
            return rank_word(rl + 1, d, b)
    return None


def _structural_depth(h):
    """Support plus longest stored stem, summed over the filterings h is built from."""
    if isinstance(h, Filtering):
        return h.support + max((len(p.stem) for level in h.levels for p in level), default=0)
    assert isinstance(h, ChainSurjection)
    return _structural_depth(h.outer) + _structural_depth(h.inner)


def node_in_tree(y, word):
    """The derived tree keeps a node when its cylinder meets a piece: the
    clopen overlap holds a full cell (corollary (ii) in surjections)."""
    cyl = ClopenInterval(Point(2, word, 0), Point(2, word, 1))
    return any(cyl.intersect(piece) is not None for piece in y.pieces)


def reference_node_in_tree(y, word):
    """The derived-tree predicate as a cell search: some piece meets the
    cylinder in an interval holding a full cell, searched to the structural
    depth of the map plus the longer endpoint stem plus 12 levels of slack."""
    cyl = ClopenInterval(Point(2, word, 0), Point(2, word, 1))
    for piece in y.pieces:
        j = cyl.intersect(piece)
        if j is None:
            continue
        bound = _structural_depth(y.surjection) + max(len(j.lo.stem), len(j.hi.stem)) + 12
        if reference_find_cell_within(y.surjection, j, bound) is not None:
            return True
    return False


@settings(max_examples=40)
@given(nested_maps(bases=(2,)), st.integers(0, 2**32 - 1))
def test_node_in_tree_matches_cell_search(h, seed):
    y = QCopy(h, random_qcopy(derive_rng(seed, "pieces")).pieces)
    words = [()]
    for _ in range(7):
        words = [w + (c,) for w in words for c in (0, 1)]
        for w in words:
            assert node_in_tree(y, w) == reference_node_in_tree(y, w)


def reference_branch_splits(y, prefer, cap):
    """The extreme-branch walk probe by probe: both children of every node
    on the branch are tested, and the walk takes child `prefer` when kept."""
    word = ()
    for _ in range(cap + 1):
        pref, other = word + (prefer,), word + (1 - prefer,)
        in_pref, in_other = node_in_tree(y, pref), node_in_tree(y, other)
        if in_pref and in_other:
            yield word
        if in_pref:
            word = pref
        elif in_other:
            word = other
        else:
            raise AssertionError(f"derived tree has no child below {word}")


def random_wide_qcopy(rng):
    """A random copy drawn as random_qcopy draws one, with support and piece
    count up to 4 instead of 3."""
    h = from_filtering(random_filtering(rng, 2, rng.randint(0, 4)))
    n = rng.randint(1, 4)
    cuts = increasing_q_points(rng, min_point(2), max_point(2), 2 * n)
    pieces = []
    for i in range(n):
        lo = min_point(2) if i == 0 and rng.random() < 0.5 else interval_successor(cuts[2 * i])
        hi = max_point(2) if i == n - 1 and rng.random() < 0.5 else cuts[2 * i + 1]
        pieces.append(ClopenInterval(lo, hi))
    return QCopy(h, tuple(pieces))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(0, 12))
def test_branch_splits_follow_endpoint_digits(seed, target, r):
    # the closed form, expanded to cap L + r + 2, is the probe-by-probe walk:
    # on random copies, and on the copies build_witness cuts from them
    y = random_wide_qcopy(derive_rng(seed, "branch"))
    for c in (y, build_witness(y, target).copy):
        for prefer in (0, 1):
            end = c.pieces[-1].hi if prefer else c.pieces[0].lo
            splits = _branch_splits(c, prefer)
            cap = splits[1] + r + 2
            want = [len(w) for w in reference_branch_splits(c, prefer, cap)]
            got = [_nth_split(splits, n) for n in range(len(want) + 1)]
            assert got[:-1] == want and got[-1] > cap
            assert [end.prefix(d) for d in want] == list(reference_branch_splits(c, prefer, cap))
            for d in range(cap + 2):
                assert _splits_below(splits, d) == sum(1 for x in want if x < d)


def test_qcopy_normalization():
    e = identity(2)
    # abutting pieces merge into one
    y = QCopy(e, (ClopenInterval(min_point(2), q(0, 0)), ClopenInterval(Point(2, (0, 1), 0), q(0))))
    assert len(y.pieces) == 1
    assert y.pieces[0] == ClopenInterval(min_point(2), q(0))
    assert len(QCopy.unrestricted(e).pieces) == 1
    with pytest.raises(ValueError):
        QCopy(identity(3), (ClopenInterval.whole(3),))
    with pytest.raises(ValueError):
        QCopy(e, ())


def test_qcopy_json_roundtrip():
    y = random_qcopy(derive_rng(3, "json"))
    assert QCopy.from_json(y.to_json()).to_json() == y.to_json()


def test_copies_are_their_pieces_no_cell_is_walked(monkeypatch):
    # decoding a copy, its color and its witnesses read only the pieces
    rng = derive_rng(5, "no-walk")
    copies = [random_wide_qcopy(rng) for _ in range(6)]
    chain = compose(from_filtering(random_filtering(rng, 2, 2)), from_filtering(random_filtering(rng, 2, 3)))
    copies.append(QCopy(chain, copies[0].pieces))
    want = [(y.to_json(), omega_coloring(y), [build_witness(y, r).to_json() for r in (0, 1, 5)]) for y in copies]
    assert all(y.surjection.support > 0 for y in copies[1:])

    def refuse(*args):
        raise AssertionError("a cell was walked")

    walk = intervals.point_words
    for module in list(sys.modules.values()):
        if getattr(module, "point_words", None) is walk:
            monkeypatch.setattr(module, "point_words", refuse)
    monkeypatch.setattr(Filtering, "cell_maxima", refuse)
    for js, color, witnesses in want:
        y = QCopy.from_json(js)
        assert y.to_json() == js and omega_coloring(y) == color
        assert [build_witness(y, r).to_json() for r in (0, 1, 5)] == witnesses


def test_omega_coloring_goldens():
    full = QCopy.unrestricted(identity(2))
    assert omega_coloring(full) == 0
    left = QCopy(identity(2), (ClopenInterval(min_point(2), q(0)),))
    assert omega_coloring(left) == 0


def test_build_witness_goldens():
    full = QCopy.unrestricted(identity(2))
    z0 = build_witness(full, 0)
    assert z0.color == 0 and len(z0.copy.pieces) == 1  # r=0 cut merges away
    z2 = build_witness(full, 2)
    assert z2.color == 2
    assert z2.cut_node == (0, 0, 0) and z2.keep_node == (1,)
    assert omega_coloring(z2.copy) == 2
    j = z2.to_json()
    assert j["color"] == 2 and j["target"] == 2


def test_witness_steering_random_copies():
    rng = derive_rng(7, "steer")
    for _ in range(8):
        y = random_qcopy(rng)
        assert omega_coloring(y) >= 0
        for r in (0, 1, 4):
            assert build_witness(y, r).color == r


def test_witness_target_past_old_cap():
    # no depth cap: the cut node lies far deeper than 6 levels
    out = build_witness(QCopy.unrestricted(identity(2)), 40)
    assert out.color == 40 and len(out.cut_node) > 40


@pytest.mark.parametrize("y", [QCopy.unrestricted(identity(2)), random_qcopy(derive_rng(42, "x"))])
def test_witness_deep_targets(y):
    for r in (70, 1000):
        z = build_witness(y, r)
        assert z.color == r == omega_coloring(z.copy)


def test_witness_target_over_limit_refused_before_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("branch walked")

    monkeypatch.setattr(experiments, "_branch_splits", refuse)
    with pytest.raises(ValueError, match=f"over limit {MATERIALIZE_LIMIT}"):
        build_witness(QCopy.unrestricted(identity(2)), MATERIALIZE_LIMIT)


def test_realize_all_colors_identity():
    rep = realize_all_colors(identity(2), 2, 20)
    assert rep.complete and rep.colors == 16
    assert len(rep.realizations) == 16
    assert all(r.verified and r.witness is not None for r in rep.realizations)
    assert rep.to_json()["t"] == 16
    assert rep.combos == 5266


@pytest.mark.parametrize("base, combos", [(2, 1), (3, 12)])
def test_realize_all_colors_one_digit(base, combos):
    rep = realize_all_colors(identity(base), 1, 20)
    assert rep.complete and all(r.verified for r in rep.realizations)
    assert rep.combos == combos


def test_realize_all_colors_skewed():
    h = from_filtering(Filtering(2, ((q(0, 0),),)))
    rep = realize_all_colors(h, 2, 20)
    assert rep.complete and all(r.verified for r in rep.realizations)


@pytest.mark.parametrize("k", [3, 40])
def test_realize_all_colors_bounds_k_before_work(monkeypatch, k):
    import cantorsurj.experiments as experiments

    def refuse(ell):
        raise AssertionError("tangent_number reached before the leaf bound")

    monkeypatch.setattr(experiments, "tangent_number", refuse)
    with pytest.raises(ValueError, match="types are enumerated up to 6"):
        realize_all_colors(identity(2), k, 20)


def test_realize_reports_missing_when_starved():
    rep = realize_all_colors(identity(2), 2, 20, budget=10)
    assert not rep.complete
    assert len(rep.realizations) == 16  # one row per color regardless
    assert not any(r.verified for r in rep.realizations)


def test_coloring_spec_validation():
    ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16)))
    with pytest.raises(ValueError):
        ColoringSpec(2, 2, 16, "relabeled_types", relabel=(0, 1))  # arity
    with pytest.raises(ValueError):
        ColoringSpec(2, 2, 3, "relabeled_types", relabel=(0, 1, 5) + (0,) * 13)
    with pytest.raises(ValueError):
        ColoringSpec(2, 2, 4, "nonsense")
    for base, depth in ((1, 2), (2, 0)):
        with pytest.raises(ValueError, match="need b >= 2 and k >= 1"):
            ColoringSpec(base, depth, 4, "constant")


@pytest.mark.parametrize("base, depth", [(2, 3), (3, 2), (2, 10**6)])
def test_relabeled_spec_past_leaf_cap_refused_before_tangent(monkeypatch, base, depth):
    import cantorsurj.experiments as experiments

    def refuse(ell):
        raise AssertionError("tangent_number reached before the leaf bound")

    monkeypatch.setattr(experiments, "tangent_number", refuse)
    with pytest.raises(ValueError, match="types are enumerated up to 6 leaves"):
        ColoringSpec(base, depth, 4, "relabeled_types", relabel=(0,))


def test_coloring_spec_color_of():
    e = identity(2)
    spec = ColoringSpec(2, 2, 4, "table", table=(("00|0|10", 3),), constant=1)
    assert spec.color_of(e.fingerprint(2)) == 3
    assert spec.color_of((q(0, 0, 0), q(0, 0), q(1, 0))) == 1  # falls to default
    assert not spec.factors_through_types()
    assert ColoringSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize(
    "field, value",
    [("k", 2.9), ("colors", True), ("b", "2"), ("relabel", [0.0] * 16), ("value", 1.5)],
    ids=["float-k", "bool-colors", "string-base", "float-relabel", "float-value"],
)
def test_coloring_spec_from_json_rejects_non_integers(field, value):
    obj = ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16))).to_json()
    obj[field] = value
    with pytest.raises(ValueError, match="expected an integer"):
        ColoringSpec.from_json(obj)


def test_oscillation_exact_regime():
    spec = ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16)))
    rep = oscillation_search(spec, Fraction(3, 10))
    assert rep.regime == "exact" and rep.guaranteed
    assert rep.labels == tuple(range(16))
    for w in rep.witnesses:
        f = tuple_to_factor(identity(2), BoundaryTuple(2, 2, w.points))
        assert spec.color_of(compose(f, identity(2)).fingerprint(2)) == w.label


def test_oscillation_collapsing_relabel():
    spec = ColoringSpec(2, 2, 16, "relabeled_types", relabel=(3,) * 16)
    rep = oscillation_search(spec, Fraction(3, 10))
    assert rep.labels == (3,) and rep.guaranteed


def test_oscillation_constant():
    rep = oscillation_search(ColoringSpec(2, 2, 7, "constant", constant=5), Fraction(3, 10))
    assert rep.labels == (5,) and rep.guaranteed and rep.regime == "exact"


def test_oscillation_table_labels_exact():
    spec = ColoringSpec(2, 2, 4, "table", table=(("00|0|10", 3),), constant=1)
    rep = oscillation_search(spec, Fraction(3, 10))
    assert rep.regime == "exact" and not rep.guaranteed and rep.candidates_tried == 1
    assert rep.labels == (1, 3)
    default = rep.witnesses[0]
    assert default.label == 1 and default.type_index is None
    # the identity's fingerprint is the key, so its first stem grows by a zero
    assert _fingerprint_key(default.points) == "000|0|10"
    assert rep.to_json() == oscillation_search(spec, Fraction(3, 10)).to_json()


def test_oscillation_table_key_off_the_identity_is_reached():
    spec = ColoringSpec(2, 2, 4, "table", table=(("0000000|0010000|1100000", 3),), constant=1)
    rep = oscillation_search(spec, Fraction(3, 10))
    assert rep.labels == (1, 3)
    assert _fingerprint_key(rep.witnesses[1].points) == "0000000|0010000|1100000"


def test_oscillation_table_with_a_repeated_key_matches_color_of():
    # a repeated key keeps its last label, as color_of reads it
    ident = _fingerprint_key(identity(2).fingerprint(2))
    other = "0000000|0010000|1100000"
    spec = ColoringSpec(2, 2, 4, "table", table=((ident, 3), (other, 2), (ident, 0)), constant=1)
    rep = oscillation_search(spec, Fraction(3, 10))
    # reference: every key candidate labelled by color_of, then one miss;
    # the first candidate of each label is its witness
    first: dict[int, tuple | None] = {}
    for fp in spec._key_points:
        first.setdefault(spec.color_of(fp), fp)
    first.setdefault(spec.constant, None)
    assert rep.labels == tuple(sorted(first)) == (0, 1, 2)
    for w in rep.witnesses:
        assert spec.color_of(w.points) == w.label
        assert w.points == first[w.label] if first[w.label] else _fingerprint_key(w.points) not in spec._lookup


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
    st.integers(0, 4),
    st.booleans(),
    st.integers(1, 5),
)
def test_oscillation_table_labels_are_default_and_key_labels(base, k, seed, n_keys, with_identity, colors):
    rng = derive_rng(seed, "table-keys")
    e = identity(base)
    fps = [from_filtering(random_filtering(rng, base, rng.randint(0, 3))).fingerprint(k) for _ in range(n_keys)]
    if with_identity:
        fps.append(e.fingerprint(k))
    table = {_fingerprint_key(fp): rng.randrange(colors) for fp in fps}
    default = rng.randrange(colors)
    spec = ColoringSpec(base, k, colors, "table", table=tuple(sorted(table.items())), constant=default)
    rep = oscillation_search(spec, Fraction(1, 2 ** (k - 1)))
    assert set(rep.labels) == {default} | set(table.values())
    assert [w.label for w in rep.witnesses] == list(rep.labels)
    for w in rep.witnesses:
        f = tuple_to_factor(e, BoundaryTuple(base, k, w.points))
        assert spec.color_of(compose(f, e).fingerprint(k)) == w.label


def test_oscillation_on_a_table_is_linear_in_its_keys():
    # one lookup per candidate: the search's reads of the table and of its
    # dict are counted, so a scan of the table per candidate (n^2 reads)
    # fails at once, whatever the host's timings
    rng = derive_rng(0, "linear-table")
    reads = [0]

    class Table(tuple):
        def __iter__(self):
            for entry in tuple.__iter__(self):
                reads[0] += 1
                yield entry

        def __getitem__(self, i):
            reads[0] += 1
            return tuple.__getitem__(self, i)

        def __contains__(self, entry):  # through the counted walk
            return any(entry == e for e in self)

    class Lookup(dict):
        def __getitem__(self, key):
            reads[0] += 1
            return dict.__getitem__(self, key)

        def __contains__(self, key):
            reads[0] += 1
            return dict.__contains__(self, key)

        def get(self, key, default=None):
            reads[0] += 1
            return dict.get(self, key, default)

    for n in (500, 4000):
        table = {}
        while len(table) < n:
            fp = from_filtering(random_filtering(rng, 2, rng.randint(2, 6))).fingerprint(2)
            table[_fingerprint_key(fp)] = rng.randrange(8)
        spec = ColoringSpec(2, 2, 8, "table", table=tuple(sorted(table.items())), constant=7)
        object.__setattr__(spec, "table", Table(spec.table))
        object.__setattr__(spec, "_lookup", Lookup(spec._lookup))
        reads[0] = 0
        rep = oscillation_search(spec, Fraction(1, 2))
        assert set(rep.labels) == {7} | set(table.values())
        # one walk of the keys, a label per key, and at most n + 1 tests for the miss
        assert reads[0] <= 3 * n + 1, (n, reads[0])


def test_oscillation_depth_mismatch():
    with pytest.raises(ValueError):
        oscillation_search(ColoringSpec(2, 3, 16, "constant", constant=0), Fraction(3, 10))


def test_oscillation_resolution_depth():
    # k is the least depth with 2^-k < eps; any other coloring depth is refused
    for base, eps, k in ((2, Fraction(3, 10), 2), (2, "0.3", 2), (2, 0.6, 1), (2, 1, 1), (3, Fraction(1, 2), 2)):
        assert oscillation_search(ColoringSpec(base, k, 1, "constant"), eps).k == k
        with pytest.raises(ValueError, match=f"needs depth {k}$"):
            oscillation_search(ColoringSpec(base, k + 1, 1, "constant"), eps)
    for eps in (0, -1, 2, Fraction(11, 10)):
        with pytest.raises(ValueError, match=r"resolution must lie in \(0, 1\]"):
            oscillation_search(ColoringSpec(2, 1, 1, "constant"), eps)


def _count_scans(monkeypatch):
    calls = []
    scan = experiments.scan_types
    monkeypatch.setattr(experiments, "scan_types", lambda *args: calls.append(args) or scan(*args))
    experiments._identity_realization.cache_clear()
    return calls


def test_oscillation_scans_the_identity_cube_once(monkeypatch):
    calls = _count_scans(monkeypatch)
    for relabel in (tuple(range(16)), tuple(i % 5 for i in range(16))):
        rep = oscillation_search(ColoringSpec(2, 2, 16, "relabeled_types", relabel=relabel), Fraction(3, 10))
        assert rep.labels == tuple(sorted(set(relabel))) and rep.guaranteed
    assert len(calls) == 1


def test_oscillation_warm_witnesses_equal_cold(monkeypatch):
    calls = _count_scans(monkeypatch)
    spec = ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16)))
    cold = oscillation_search(spec, Fraction(3, 10))
    warm = oscillation_search(spec, Fraction(3, 10))
    assert len(calls) == 1 and warm.to_json() == cold.to_json()
    # one label per type, so the witnesses are the scan's, in type order
    out = scan_types(identity(2), 3)
    assert [(w.type_index, w.points) for w in warm.witnesses] == [
        (r, out.witnesses[r].points) for r in sorted(out.witnesses)
    ]


def test_oscillation_warm_relabeled_call_certifies_and_classifies_nothing(monkeypatch):
    oscillation_search(ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16))), Fraction(3, 10))
    spec = ColoringSpec(2, 2, 4, "relabeled_types", relabel=tuple(i % 4 for i in range(16)))
    calls = []
    for name in ("tuple_to_factors", "canonical_coloring"):
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    rep = oscillation_search(spec, Fraction(3, 10))
    assert rep.labels == (0, 1, 2, 3) and calls == []


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 1), (2, 2), (3, 1), (4, 1)]), st.integers(1, 6), st.data())
def test_oscillation_relabeled_witnesses_carry_their_labels_and_types(bk, colors, data):
    b, k = bk
    ell, t = b**k - 1, tangent_number(b**k - 1)
    relabel = tuple(data.draw(st.lists(st.integers(0, colors - 1), min_size=t, max_size=t)))
    spec = ColoringSpec(b, k, colors, "relabeled_types", relabel=relabel)
    rep = oscillation_search(spec, Fraction(1, 2 ** (k - 1)))
    assert rep.labels == tuple(sorted(set(relabel)))
    for w in rep.witnesses:
        assert spec.color_of(w.points) == w.label
        assert canonical_coloring(w.points, ell) == w.type_index


def test_oscillation_cache_is_keyed_on_the_budget():
    experiments._identity_realization.cache_clear()
    spec = ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16)))
    # three leaves need five distinct node depths, so depth 4 at the
    # earliest, where C(15, 3) = 455 combinations pass a budget of 100
    with pytest.raises(RuntimeError, match="type sweep incomplete"):
        oscillation_search(spec, Fraction(3, 10), budget=100)
    assert oscillation_search(spec, Fraction(3, 10)).labels == tuple(range(16))


IDENTITY_KEYS = [
    (b, k, cap, budget)
    for b, k in ((2, 1), (2, 2), (3, 1), (4, 1))
    for cap in (20, None)
    for budget in (100, DEFAULT_SCAN_BUDGET)
]


def test_identity_realization_cold_and_warm_equal_the_uncached_body():
    # one cache across every key: a key that drops the base, the cap or the
    # budget makes a later cold call read another key's report
    experiments._identity_realization.cache_clear()
    want = {
        (b, k, cap, budget): json.dumps(experiments._realize(identity(b), k, caps.depth_cap(cap), budget).to_json())
        for b, k, cap, budget in IDENTITY_KEYS
    }
    for _ in ("cold", "warm"):
        for b, k, cap, budget in IDENTITY_KEYS:
            got = realize_all_colors(Filtering(b, ()), k, cap, budget)
            assert json.dumps(got.to_json()) == want[b, k, cap, budget]
    assert experiments._identity_realization.cache_info().misses == len(IDENTITY_KEYS)


def test_identity_realization_keys_carry_their_types():
    realize_all_colors(identity(2), 2, 20)
    with pytest.raises(TypeError):
        realize_all_colors(identity(2), 2, 20.0)


def _count_realization_work(monkeypatch):
    calls = []
    for name in ("scan_types", "tuple_to_factors", "canonical_coloring"):
        real = getattr(experiments, name)
        monkeypatch.setattr(experiments, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    return calls


def test_warm_identity_realization_scans_certifies_and_classifies_nothing(monkeypatch):
    experiments._identity_realization.cache_clear()
    cold = realize_all_colors(identity(2), 2, 20)
    calls = _count_realization_work(monkeypatch)
    assert realize_all_colors(identity(2), 2, 20) is cold and calls == []
    # oscillation reads the same cache, at the default cap
    realize_all_colors(identity(2), 2)
    calls.clear()
    oscillation_search(ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16))), Fraction(3, 10))
    assert calls == []


@pytest.mark.parametrize(
    "h, uncached",
    [(Filtering(2, ((q(0),),)), False), (ChainSurjection(identity(2), Filtering(2, ((q(0, 0),),))), True)],
    ids=["stored-identity-level", "identity-o-support-1"],
)
def test_maps_of_positive_support_always_scan(monkeypatch, h, uncached):
    # the identity with its level stored answers the identity's report; a
    # chain whose first map is the identity but whose support is 1 answers
    # its own, as an uncached realization does
    experiments._identity_realization.cache_clear()
    ident = realize_all_colors(identity(2), 2, 20)
    want = (experiments._realize(h, 2, 20, DEFAULT_SCAN_BUDGET) if uncached else ident).to_json()
    calls = _count_realization_work(monkeypatch)
    for _ in range(2):
        got = realize_all_colors(h, 2, 20)
        assert json.dumps(got.to_json()) == json.dumps(want) and got is not ident
    assert calls.count("scan_types") == 2


@pytest.mark.parametrize("n", [2, 5])
def test_a_chain_of_support_0_reads_the_identity_cache(monkeypatch, n):
    # a chain of identities is the identity as a map, and its support is 0
    h = identity(2)
    for _ in range(n - 1):
        h = ChainSurjection(h, identity(2))
    want = json.dumps(experiments._realize(h, 2, 20, DEFAULT_SCAN_BUDGET).to_json())
    experiments._identity_realization.cache_clear()
    cold = realize_all_colors(identity(2), 2, 20)
    calls = _count_realization_work(monkeypatch)
    got = realize_all_colors(h, 2, 20)
    assert got is cold and json.dumps(got.to_json()) == want and calls == []


def test_realize_all_colors_refuses_a_witness_of_another_color(monkeypatch):
    scan = experiments.scan_types

    def swapped(*args):
        out = scan(*args)
        w = out.witnesses
        w[0], w[1] = w[1], w[0]
        return out

    monkeypatch.setattr(experiments, "scan_types", swapped)
    experiments._identity_realization.cache_clear()
    with pytest.raises(RuntimeError, match="realization of color 0 failed verification: composite 1$"):
        realize_all_colors(identity(2), 2, 20)
