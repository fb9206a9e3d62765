import json
import random
import sys
import threading
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    cell_child_maxima,
    child_bounds,
    filterings,
    nested_maps,
    q,
    rank_word,
    reference_cell_chain,
)
from cantorsurj import intervals
from cantorsurj.intervals import (
    MATERIALIZE_LIMIT,
    BoundaryTuple,
    ClopenInterval,
    Evaluation,
    Filtering,
    FilteringReport,
    _pick_stems,
    _strip,
    least_q_point_between,
    point_words,
    validate_filtering,
)
from cantorsurj.points import (
    Point,
    interval_successor,
    iter_points,
    max_point,
    min_point,
    points_from_json,
    word_rank,
)
from cantorsurj.randgen import random_filtering
from cantorsurj.surjections import (
    ChainSurjection,
    compose,
    factor_through,
    from_filtering,
    identity,
    surjection_from_json,
    to_filtering,
    tuple_to_factor,
)


def cell(f, word):
    """The cell of filtering f at `word`, from the one word walk."""
    lo, hi = f._cell_ends((word,))[word]
    return ClopenInterval(Point(f.base, lo, 0), Point(f.base, hi, f.base - 1))


def maxima_at(tree, depth, indices):
    """Entries `indices` of the depth-`depth` boundary tuple, read by word."""
    words = [rank_word(i, depth, tree.base) for i in indices]
    got = tree.cell_maxima(words)
    return tuple(got[w] for w in words)


def test_interval_basics():
    w = ClopenInterval.whole(2)
    assert w.lo <= min_point(2) <= w.hi and w.lo <= max_point(2) <= w.hi
    c0 = ClopenInterval(Point(2, (0,), 0), Point(2, (0,), 1))
    assert c0.lo == min_point(2) and c0.hi == q(0)
    with pytest.raises(ValueError):
        ClopenInterval(q(0), q(0, 0))  # reversed endpoints


def test_intersect():
    a = ClopenInterval(min_point(2), q(0))
    b = ClopenInterval(Point(2, (1,), 0), max_point(2))
    assert a.intersect(b) is None
    inner = ClopenInterval(Point(2, (0, 1), 0), q(0))
    assert a.intersect(inner) == inner
    assert a.lo <= inner.lo and inner.hi <= a.hi
    assert not (inner.lo <= a.lo and a.hi <= inner.hi)


def test_interval_json():
    iv = ClopenInterval(Point(2, (0, 1), 0), q(1, 0))
    assert ClopenInterval.from_json(iv.to_json()) == iv


def split_maxima(cell):
    """The cell's b-1 greedy division points, as Points."""
    top = cell.base - 1
    return tuple(Point(cell.base, s, top) for s in _pick_stems(top, cell.lo.stem, cell.hi.stem))


def test_pick_stems_goldens():
    assert _pick_stems(1, (), ()) == [(0,)]
    assert _pick_stems(2, (), ()) == [(0,), (1,)]
    assert _pick_stems(1, (), (0,)) == [(0, 0)]
    # past hi's first digit the picks skip to its next nonzero digit
    assert _pick_stems(2, (), (1, 0, 2)) == [(0,), (1, 0, 0)]
    # a shared prefix the caller already knows is skipped over
    assert _pick_stems(1, (1, 0, 1), (1, 1), 1) == [(1, 0)]


def reference_canonical_split_maxima(cell):
    """The loop the closed form replaced: b-1 calls of least_q_point_between,
    each from the previous pick."""
    picks, prev = [], cell.lo
    for _ in range(cell.base - 1):
        prev = least_q_point_between(prev, cell.hi)
        picks.append(prev)
    return tuple(picks)


@st.composite
def cells(draw):
    """Cells of bases 2-5 whose maximum's stem has runs of zeros, and whose
    minimum often shares a prefix with it."""
    b = draw(st.integers(2, 5))
    digit = st.integers(0, b - 1)
    runs = draw(st.lists(st.tuples(st.integers(0, 4), digit), max_size=4))
    hi = Point(b, tuple(x for zeros, d in runs for x in (0,) * zeros + (d,)), b - 1)
    shared = draw(st.integers(0, len(hi.stem)))
    lo = Point(b, hi.stem[:shared] + tuple(draw(st.lists(digit, max_size=5))), 0)
    assume(lo < hi)
    return ClopenInterval(lo, hi)


@settings(max_examples=500)
@given(cells())
def test_canonical_split_matches_least_q_point_loop(cell):
    want = reference_canonical_split_maxima(cell)
    assert split_maxima(cell) == want
    # any count of leading digits the ends are known to share gives the same picks
    n = cell.lo.first_difference(cell.hi)
    for known in {0, n // 2, n}:
        assert _pick_stems(cell.base - 1, cell.lo.stem, cell.hi.stem, known) == [p.stem for p in want]


def reference_boundary_tuple(f, depth):
    """The per-cell level builder the one-pass walk replaced: one
    ClopenInterval per cell of the level above, split by the reference loop."""
    if depth <= f.support:
        return f.fingerprint(depth)
    prev, out, lo = reference_boundary_tuple(f, depth - 1), [], min_point(f.base)
    for r in range(f.base ** (depth - 1)):
        hi = prev[r] if r < len(prev) else max_point(f.base)
        out.extend(reference_canonical_split_maxima(ClopenInterval(lo, hi)))
        if r < len(prev):
            out.append(hi)
            lo = interval_successor(hi)
    return tuple(out)


@settings(max_examples=60, deadline=None)
@given(filterings())
def test_boundary_tuple_matches_cell_loop_and_entries(f):
    entries = Filtering(f.base, f.levels)  # warmed only through entry look-ups
    for d in range(f.support + 4):
        level = f.fingerprint(d)
        assert level == reference_boundary_tuple(f, d)
        assert level == maxima_at(entries, d, range(f.base**d - 1))


def reference_greedy_level(base, above):
    """The per-cell pass the one-loop level build replaced: every cell of
    the level above, from the first (lo ()) to the last (hi ()), split by
    _pick_stems, with the next cell's minimum the successor of its maximum."""
    top, out, lo = base - 1, [], ()
    for hi in above:
        out += [Point(base, s, top) for s in _pick_stems(top, lo, hi.stem)]
        out.append(hi)
        lo = hi.stem[:-1] + (hi.stem[-1] + 1,)
    out += [Point(base, s, top) for s in _pick_stems(top, lo, ())]
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
def test_greedy_levels_match_per_cell_pass(b, s, seed, data):
    f = random_filtering(random.Random(seed), b, s)
    # every greedy level to support + 4, kept to about 5,000 entries a level
    deepest = max(s + 1, min(s + 4, next(d for d in range(13) if b ** (d + 1) > 5000)))
    first = data.draw(st.integers(s + 1, deepest))  # levels may also be built from a deeper call
    f.fingerprint(first)
    for d in range(1, deepest + 1):
        level = f.fingerprint(d)
        if d > s:
            assert level == reference_greedy_level(b, f.fingerprint(d - 1))
        assert len(level) == b**d - 1


def test_greedy_level_goldens():
    # base 3, the cylinder partition: at depth 2 the cell [0 2] has the
    # longer end stem lo = 0 2 (hi = 0 2 2^w has stem 0), [1 0] the longer
    # hi = 1 0 (lo = 1 0^w has stem 1), and [1] has lo = hi = 1
    f = Filtering(3, ((Point(3, (0,), 2), Point(3, (1,), 2)),))
    level = f.fingerprint(2)
    assert [p.stem for p in level] == [(0, 0), (0, 1), (0,), (1, 0), (1, 1), (1,), (2, 0), (2, 1)]
    assert [p.stem for p in f.fingerprint(3)[6:12]] == [(0, 2, 0), (0, 2, 1), (0,), (1, 0, 0), (1, 0, 1), (1, 0)]
    assert level == reference_greedy_level(3, f.fingerprint(1))


@pytest.mark.parametrize("b, depth", [(2, 7), (3, 5), (4, 4), (5, 3)])
def test_full_cylinders_split_in_closed_form(monkeypatch, b, depth):
    # every cell of the cylinder partition is a full cylinder [v], with v
    # ending in a top digit (lo the longer end stem), in 0 (hi the longer)
    # or in neither: no greedy level of it may reach _pick_stems
    calls = []
    monkeypatch.setattr(intervals, "_pick_stems", lambda *args: calls.append(args))
    level = Filtering(b).fingerprint(depth)
    assert calls == []
    assert [p.stem for p in level] == [_strip(rank_word(r, depth, b), b - 1) for r in range(b**depth - 1)]


def test_boundary_tuple_refuses_out_of_order_level():
    # unvalidated: the depth-2 level swaps its first two entries
    f = Filtering(2, ((q(0),), (q(0), q(0, 0), q(1, 0))))
    for _ in range(2):  # a refused level is not memoized either
        with pytest.raises(ValueError, match="empty interval"):
            f.fingerprint(f.support + 1)


def test_least_q_point_between_goldens():
    assert least_q_point_between(min_point(2), max_point(2)) == q(0)
    assert least_q_point_between(min_point(2), q(0)) == q(0, 0)
    assert least_q_point_between(q(0), max_point(2)) == q(1, 0)


SHORT_Q_POINTS = [x for x in iter_points(2, 12) if x.is_q_point]


@given(st.data())
def test_least_q_point_minimality(data):
    # hi must be a limit from below: eventually-max points and the top only
    lo = data.draw(st.sampled_from([x for x in iter_points(2, 6)]))
    hi = data.draw(st.sampled_from([x for x in iter_points(2, 6) if x.tail == 1]))
    if not lo < hi:
        return
    y = least_q_point_between(lo, hi)
    assert y.is_q_point and lo < y < hi
    # brute check of the (stem length, lex) minimality over short stems
    for cand in SHORT_Q_POINTS:
        if lo < cand < hi:
            assert (len(y.stem), y) <= (len(cand.stem), cand)


def reference_least_q_point(lower, hi):
    """The stem-length search the closed form replaced: for each length, the
    lex-least canonical q-point of that stem length above lower, until one
    lies below hi."""
    if not lower < hi:
        raise ValueError("empty open interval")
    if lower.tail == lower.base - 1 and interval_successor(lower) == hi:
        raise ValueError("successor pair")
    b = lower.base
    for length in range(1, len(lower.stem) + len(hi.stem) + 3):
        s = list(lower.prefix(length))
        while True:
            cand = Point(b, tuple(s), b - 1)
            if len(cand.stem) == length and cand > lower:
                break
            i = length - 1  # bump to the next stem of this length
            while i >= 0 and s[i] == b - 1:
                s[i] = 0
                i -= 1
            if i < 0:
                cand = None
                break
            s[i] += 1
        if cand is not None and cand < hi:
            return cand
    raise AssertionError(f"no q-point between {lower} and {hi} found")


@settings(max_examples=600)
@given(st.data())
def test_least_q_point_matches_search(data):
    # any tails on both ends; hi often shares a prefix with lower
    b = data.draw(st.integers(2, 5))
    digits = st.lists(st.integers(0, b - 1), max_size=6)
    lower = Point(b, tuple(data.draw(digits)), data.draw(st.integers(0, b - 1)))
    shared = data.draw(st.integers(0, len(lower.stem)))
    hi = Point(b, lower.stem[:shared] + tuple(data.draw(digits)), data.draw(st.integers(0, b - 1)))
    try:
        want = reference_least_q_point(lower, hi)
    except ValueError:
        with pytest.raises(ValueError):
            least_q_point_between(lower, hi)
        return
    assert least_q_point_between(lower, hi) == want


@pytest.mark.parametrize(
    "lower, hi",
    [
        (q(0, 0), Point(2, (0, 1), 0)),  # successor pair
        (Point(3, (1, 2), 0), Point(3, (1, 2), 0)),  # equal
        (Point(3, (2,), 0), Point(3, (1,), 2)),  # reversed
    ],
    ids=["successor", "equal", "reversed"],
)
def test_least_q_point_empty_cases_match_search(lower, hi):
    for split in (least_q_point_between, reference_least_q_point):
        with pytest.raises(ValueError):
            split(lower, hi)


@pytest.mark.parametrize("b, d", [(2, 12), (3, 7)])
def test_identity_fingerprint_is_cylinder_maxima(b, d):
    # the greedy rule from the whole space gives the standard cylinders
    want = tuple(Point(b, w, b - 1) for w in product(range(b), repeat=d))[:-1]
    assert identity(b).fingerprint(d) == want


@settings(max_examples=40, deadline=None)
@given(filterings(max_support=3), st.integers(1, 5))
def test_boundary_tuple_independent_of_call_order(f, d):
    shallow_first = Filtering(f.base, f.levels)
    want = (shallow_first.fingerprint(d), shallow_first.fingerprint(d + 1))
    deep_first = Filtering(f.base, f.levels)
    deep = deep_first.fingerprint(d + 1)
    assert (deep_first.fingerprint(d), deep) == want
    # entry look-ups first: they build no level
    warmed = Filtering(f.base, f.levels)
    maxima_at(warmed, d + 1, range(0, f.base ** (d + 1) - 1, 3))
    deep = warmed.fingerprint(d + 1)
    assert (warmed.fingerprint(d), deep) == want


def test_least_q_point_empty_gap():
    # an eventually-zero hi can be lo's immediate successor: nothing between
    lo = q(0, 0)
    hi = interval_successor(lo)
    with pytest.raises(ValueError):
        least_q_point_between(lo, hi)


def test_identity_boundaries():
    e = Filtering(2, ())
    assert e.fingerprint(0) == ()
    assert e.fingerprint(1) == (q(0),)
    assert e.fingerprint(2) == (q(0, 0), q(0), q(1, 0))
    assert cell(e, (0, 1)) == ClopenInterval(Point(2, (0, 1), 0), q(0))
    assert e.support == 0


@given(filterings())
def test_boundary_nesting(f):
    # each level's maxima appear verbatim one level down, at stride b
    b = f.base
    for d in range(1, 5):
        above = f.fingerprint(d - 1)
        below = f.fingerprint(d)
        for i, y in enumerate(above):
            assert below[b * i + b - 1] == y


@given(filterings(max_support=3), st.integers(0, 2), st.integers(3, 5))
def test_boundary_subsample(f, j, k):
    b = f.base
    coarse = f.fingerprint(j)
    fine = f.fingerprint(k)
    for i in range(len(coarse)):
        assert coarse[i] == fine[b ** (k - j) * (i + 1) - 1]


@given(filterings(max_support=3))
def test_children_tile_parent(f):
    b = f.base
    for d in range(3):
        for word in product(range(b), repeat=d):
            parent = cell(f, word)
            kids = [cell(f, word + (c,)) for c in range(b)]
            assert kids[0].lo == parent.lo and kids[-1].hi == parent.hi
            for left, right in zip(kids, kids[1:]):
                assert interval_successor(left.hi) == right.lo


@given(filterings())
def test_validate_accepts_generated(f):
    assert validate_filtering(f).ok


def test_validate_rejects_corrupted():
    assert validate_filtering(Filtering(2, ((q(0),), (q(0, 0), q(0), q(1, 0))))).ok
    broken = validate_filtering(Filtering(2, ((q(0),), (q(0), q(0, 0), q(1, 0)))))
    assert not broken.ok and broken.message == "entries 0,1 out of order at depth 2"
    unnested = validate_filtering(Filtering(2, ((q(0),), (q(0, 0), q(0, 1, 0), q(1, 0)))))
    assert not unnested.ok and unnested.message == "depth-2 tuple does not carry depth-1 maximum 0"
    short = validate_filtering(Filtering(2, ((q(0),), (q(0, 0), q(0)))))
    assert not short.ok and short.message == "depth 2 has 2 entries, needs 3"


def test_validate_names_the_first_nesting_fault_past_entry_zero():
    # base 3: depth-j maximum i is entry 3i + 2 one level down; the report
    # names the first entry that drops it, behind correct ones
    def q3(*stem):
        return q(*stem, base=3)

    top = (q3(0), q3(1))
    mid = (q3(0, 0), q3(0, 1), q3(0), q3(1, 0), q3(1, 1), q3(1, 2, 0), q3(2, 0), q3(2, 1))
    want = FilteringReport(False, "depth-2 tuple does not carry depth-1 maximum 1")
    assert validate_filtering(Filtering(3, (top, mid))) == want
    levels = to_filtering(Filtering(3, (top,)), 3).levels
    deep = list(levels[2])
    deep[3 * 4 + 2] = q3(1, 1, 2, 0)
    deep[3 * 6 + 2] = q3(2, 0, 2, 0)
    want = FilteringReport(False, "depth-3 tuple does not carry depth-2 maximum 4")
    assert validate_filtering(Filtering(3, (top, levels[1], tuple(deep)))) == want


def test_to_filtering_materializes_greedy_levels():
    f = Filtering(2, ((q(0, 0),),))
    g = to_filtering(f, 3)
    assert g.support == 3 and g.levels[0] == f.levels[0]
    assert g.fingerprint(5) == f.fingerprint(5)
    assert to_filtering(to_filtering(f, 2), 4).to_json() == to_filtering(f, 4).to_json()
    assert to_filtering(f, 1).to_json() == f.to_json()


@pytest.mark.parametrize(
    "field, value",
    [("b", 2.7), ("b", True), ("b", "2"), ("depth", 1.0)],
    ids=["float-base", "bool-base", "string-base", "float-depth"],
)
def test_filtering_from_json_rejects_non_integers(field, value):
    obj = Filtering(2, ((q(0, 0),),)).to_json()
    obj[field] = value
    with pytest.raises(ValueError, match="expected an integer"):
        Filtering.from_json(obj)


@pytest.mark.parametrize(
    "boundaries", ["", {}, [{}], ["ab"]], ids=["string", "object", "level-object", "level-string"]
)
def test_filtering_from_json_rejects_non_list_boundaries(boundaries):
    with pytest.raises(ValueError, match="expected a list of lists"):
        Filtering.from_json({"b": 2, "boundaries": boundaries})


def test_filtering_json_roundtrip():
    f = Filtering(2, ((q(0, 0),), (q(0, 0, 0), q(0, 0), q(1, 0))))
    back = Filtering.from_json(f.to_json())
    assert (back.base, back.levels) == (f.base, f.levels)


def _corrupt_level(obj, kind, j, i, data):
    """obj with point i of its level j corrupted by `kind`, or the whole
    level for "empty-level"; the points stay JSON objects."""
    b, level = obj["b"], obj["boundaries"][j]
    p = level[i % len(level)]
    at = data.draw(st.integers(0, len(p["stem"]) - 1)) if p["stem"] else None
    if kind == "bool-digit":
        p["stem"][at] = data.draw(st.booleans())
    elif kind == "float-digit":
        p["stem"][at] = float(p["stem"][at])
    elif kind == "digit-out-of-range":
        p["stem"][at] = data.draw(st.sampled_from([-1, b, b + 3]))
    elif kind == "tail-out-of-range":
        p["tail"] = data.draw(st.sampled_from([-1, b, b + 3]))
    elif kind == "bool-or-float-field":
        key = data.draw(st.sampled_from(["b", "tail"]))
        p[key] = data.draw(st.sampled_from([float(p[key]), p[key] == 1]))
    elif kind == "mixed-bases":
        p["b"] = b + 1  # a valid point of another base
    elif kind == "stem-ends-in-tail":
        p["stem"] += [p["tail"]] * data.draw(st.integers(1, 3))
    elif kind == "missing-key":
        del p[data.draw(st.sampled_from(["b", "stem", "tail"]))]
    elif kind == "non-list-stem":
        p["stem"] = data.draw(st.sampled_from(["01", None, {"0": 1}, tuple(p["stem"]), 1]))
    elif kind == "not-an-object":
        level[i % len(level)] = [p["b"], p["stem"], p["tail"]]
    elif kind == "empty-level":
        level.clear()
    return obj


def _outcome(decode, *args):
    try:
        return "decoded", decode(*args)
    except ValueError as exc:
        return "refused", str(exc)


def _levels(outcome):
    kind, value = outcome
    return (kind, (value.base, value.levels)) if kind == "decoded" else outcome


CORRUPTIONS = [
    "none", "bool-digit", "float-digit", "digit-out-of-range", "tail-out-of-range", "bool-or-float-field",
    "mixed-bases", "stem-ends-in-tail", "missing-key", "non-list-stem", "not-an-object", "empty-level",
]


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=40)
@given(filterings(bases=(2, 3, 5), max_support=3), st.data())
def test_level_decoder_answers_as_the_per_point_decoder(kind, f, data):
    # a level decodes in C-level passes and falls back to Point.from_json
    # only to word a fault: every corrupted level decodes to the same
    # points, or is refused with the same message, by both decoders.  The
    # deepest level is corrupted, as the longest mostly take the passes
    assume(f.support > 0)
    j = f.support - 1
    obj = _corrupt_level(json.loads(json.dumps(f.to_json())), kind, j, data.draw(st.integers(0, 10**6)), data)
    level = obj["boundaries"][j]
    got = _outcome(points_from_json, level)
    assert got == _outcome(lambda ps: tuple(map(Point.from_json, ps)), level)
    if got[0] == "decoded":
        assert all(type(p) is Point and type(p.stem) is tuple for p in got[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "points_from_json", lambda ps: tuple(map(Point.from_json, ps)))
        want = _levels(_outcome(Filtering.from_json, obj))
    assert _levels(_outcome(Filtering.from_json, obj)) == want
    assert (want[0] == "decoded") == (kind in ("none", "stem-ends-in-tail"))


# messages recorded from the per-entry validator, before its C-level passes
@pytest.mark.parametrize(
    "base, entries, message",
    [
        (2, (q(0, 0), q(0)), "depth 1 has 2 entries, needs 1"),
        (2, (Point(3, (0,), 2),), "entry 0 base 3 != 2"),  # wrong base
        (2, (Point(2, (0, 1), 0),), "entry 01(0)w not an interior eventually-max point"),
        (3, (Point(3, (1,), 2), Point(3, (0,), 2)), "entries 0,1 out of order at depth 1"),
    ],
    ids=["count", "base", "q-point", "increase"],
)
def test_boundary_level_faults_rejected_everywhere(base, entries, message):
    report = validate_filtering(Filtering(base, (entries,)))
    assert not report.ok and report.message == message
    with pytest.raises(ValueError) as exc:
        BoundaryTuple(base, 1, entries)
    assert str(exc.value) == message


def reference_validate_level(base, depth, entries):
    """validate_level's per-entry loop alone: for each entry in turn its
    base, then its being an interior q-point, then order with the one
    before; the first fault is reported."""
    want = base**depth - 1
    if len(entries) != want:
        return FilteringReport(False, f"depth {depth} has {len(entries)} entries, needs {want}")
    for i, y in enumerate(entries):
        if y.base != base:
            return FilteringReport(False, f"entry {i} base {y.base} != {base}")
        if not y.is_q_point:
            return FilteringReport(False, f"entry {y} not an interior eventually-max point")
        if i > 0 and not entries[i - 1] < y:
            return FilteringReport(False, f"entries {i - 1},{i} out of order at depth {depth}")
    return FilteringReport(True)


@st.composite
def faulty_levels(draw):
    """A valid boundary level of base 2-4 and depth 1-3, or one with up to
    three faults.  Some break the order or the count: an entry replaced by
    any point, two entries swapped, one dropped.  Others keep the order, so
    only their own check sees them: the last entry made the top point, an
    entry made its eventually-0 successor, the next one made equal to it,
    an entry's digits read in another base.  Levels of four entries on take
    validate_level's C-level passes."""
    base, depth = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    level = list(random_filtering(random.Random(seed), base, depth).fingerprint(depth))
    faults = ["replace", "swap", "drop", "top", "successor", "repeat", "base"]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(level) - 1))
        fault = draw(st.sampled_from(faults))
        x = level[i]
        if fault == "replace":
            b = draw(st.sampled_from([base, base, base + 1]))
            level[i] = Point(b, tuple(draw(st.lists(st.integers(0, b - 1), max_size=4))), draw(st.integers(0, b - 1)))
        elif fault == "swap":
            j = draw(st.integers(0, len(level) - 1))
            level[i], level[j] = level[j], level[i]
        elif fault == "drop" and len(level) > 1:
            del level[i]
        elif fault == "top":
            level[-1] = max_point(base)
        elif fault == "successor" and x.base == base and x.is_q_point:
            level[i] = interval_successor(x)
        elif fault == "repeat" and i + 1 < len(level):
            level[i + 1] = x
        elif fault == "base":
            level[i] = Point(base + 1, x.stem, x.tail)
    return base, depth, tuple(level)


@settings(max_examples=400)
@given(faulty_levels())
def test_validate_level_matches_the_entry_loop(case):
    base, depth, level = case
    assert intervals.validate_level(base, depth, level) == reference_validate_level(base, depth, level)


def test_descent_refuses_stored_entry_not_eventually_max():
    # unvalidated: the one depth-1 entry has tail 0 (the "q-point" fault above)
    f = Filtering(2, ((Point(2, (0, 1), 0),),))
    x = Point(2, (1,), 0)
    calls = [
        lambda: f.cell_maxima([(0, 0)]),
        lambda: f.cell_maxima([(1, 1, 0)]),
        lambda: f._cell_ends([(0,)]),
        lambda: f.fingerprint(2),
        lambda: f.cell_maxima([rank_word(5, 3, 2)]),
        lambda: f.cell_maxima([(1, 0)]),
        lambda: point_words(f, [x], [3]),
        lambda: f.evaluate(x, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="eventually max-digit"):
            call()


@pytest.mark.parametrize(
    "depth", [MATERIALIZE_LIMIT.bit_length(), 100_000, 100_000_000, 10**100], ids=["bits", "1e5", "1e8", "1e100"]
)
def test_deep_levels_are_refused_before_the_power(depth):
    # b^depth is never computed: a depth past the limit's bit length is over
    # it for every base, and the message names the limit
    for tree in (identity(3), compose(identity(3), identity(3))):
        with pytest.raises(ValueError, match=f"more than {MATERIALIZE_LIMIT} entries; over limit"):
            tree.fingerprint(depth)


@pytest.mark.parametrize("base, depth", [(2, 21), (3, 13), (5, 9)])
def test_materialize_limit_is_the_entry_count(monkeypatch, base, depth):
    # the last depth within the limit passes the check; one more is refused
    assert base**depth - 1 <= MATERIALIZE_LIMIT < base ** (depth + 1) - 1
    # the bound alone: no level of up to 2M points is built, past it or not
    monkeypatch.setattr(Filtering, "_level", lambda self, d: f"level {d}")
    assert Filtering(base).fingerprint(depth) == f"level {depth}"
    with pytest.raises(ValueError, match="over limit"):
        Filtering(base).fingerprint(depth + 1)
    with pytest.raises(ValueError, match="depth must be nonnegative, got -1"):
        identity(base).fingerprint(-1)


# -- the stem-level descent against the memoized walk it replaced ----------


class ReferenceWalk:
    """The memo tables of the walk the stem descent replaced, for one
    filtering: cells and child maxima by word."""

    def __init__(self, f):
        self.f, self.cells, self.splits = f, {(): ClopenInterval.whole(f.base)}, {}


def reference_cell(walk, word):
    """A cell is cut from its parent by child_bounds."""
    got = walk.cells.get(word)
    if got is None:
        parent = reference_cell(walk, word[:-1])
        bounds = child_bounds(reference_child_maxima(walk, word[:-1]), parent.lo, parent.hi, word[-1])
        got = walk.cells[word] = ClopenInterval(*bounds)
    return got


def reference_child_maxima(walk, word):
    """Stored above the support, the least_q_point_between loop on the cell below."""
    f, b = walk.f, walk.f.base
    if len(word) < f.support:
        r = word_rank(word, b)
        return f.levels[len(word)][r * b : r * b + b - 1]
    got = walk.splits.get(word)
    if got is None:
        got = walk.splits[word] = reference_canonical_split_maxima(reference_cell(walk, word))
    return got


def reference_boundary_entry(walk, depth, index):
    f, b = walk.f, walk.f.base
    if depth <= f.support:
        return f.levels[depth - 1][index]
    r, p = divmod(index, b)
    if p == b - 1:
        return reference_boundary_entry(walk, depth - 1, r)
    return reference_child_maxima(walk, rank_word(r, depth - 1, b))[p]


def reference_point_words(child_maxima, base, xs, limits):
    """point_words one point at a time, down the reference cell chain, with
    Point ends: stop at the first cell x is an end of, or at the limit."""
    out = []
    for x, limit in zip(xs, limits):
        word, lo, hi = (), min_point(base), max_point(base)
        chain = reference_cell_chain(child_maxima, base, x)
        while x not in (lo, hi) and len(word) < limit:
            word, lo, hi = next(chain)
        out.append((word, x in (lo, hi)))
    return out


def reference_evaluate(child_maxima, base, x, digits):
    """Surjection.evaluate comparing x with Point cell ends."""
    top = base - 1
    if x.is_max or x == min_point(base):
        return Evaluation((x.tail,) * digits, x)
    word = ()
    for _, (word, lo, hi) in zip(range(digits), reference_cell_chain(child_maxima, base, x)):
        if x in (lo, hi):
            y = Point(base, word, top if x == hi else 0)
            return Evaluation(y.prefix(digits), y)
    return Evaluation(word, None)


@st.composite
def descent_cases(draw):
    """A filtering of base 2-5 and support 0-4, with words down to support+6
    (some ending in top digits) and points: random ones, and cell ends."""
    f = draw(filterings(bases=(2, 3, 4, 5)))
    b, top, s = f.base, f.base - 1, f.support
    digit = st.integers(0, top)
    words = draw(st.lists(st.lists(digit, max_size=s + 6).map(tuple), min_size=1, max_size=6))
    words += [w + (top,) * draw(st.integers(1, 3)) for w in words[:2]]
    walk = ReferenceWalk(f)
    ends = [p for w in words if w for p in (reference_cell(walk, w).lo, reference_cell(walk, w).hi)]
    randoms = [Point(b, tuple(draw(st.lists(digit, max_size=s + 8))), draw(digit)) for _ in range(3)]
    return f, walk, words, ends + randoms


@settings(max_examples=120, deadline=None)
@given(descent_cases())
def test_descent_matches_memoized_walk(case):
    f, walk, words, points = case
    b, top = f.base, f.base - 1
    for word in words:
        assert cell(f, word) == reference_cell(walk, word)
        assert f.cell_maxima([word])[word] == reference_cell(walk, word).hi
        assert cell_child_maxima(f, word) == reference_child_maxima(walk, word)
        depth = len(word)
        if depth and word != (top,) * depth:
            i = word_rank(word, b)
            assert maxima_at(f, depth, [i]) == (reference_boundary_entry(walk, depth, i),)
    h, child_maxima = f, lambda word: reference_child_maxima(walk, word)
    depth = f.support + 6
    for x in points:
        limits = range(depth + 1)
        assert point_words(f, [x] * len(limits), limits) == reference_point_words(
            child_maxima, b, [x] * len(limits), limits
        )
        assert h.evaluate(x, depth) == reference_evaluate(child_maxima, b, x, depth)


@settings(max_examples=60, deadline=None)
@given(nested_maps(), st.data())
def test_chain_fingerprint_and_evaluate_match_entrywise(h, data):
    b = h.base
    fresh = surjection_from_json(h.to_json())  # no memo shared with h
    for d in range(1, 4 if b == 2 else 3):
        assert h.fingerprint(d) == maxima_at(fresh, d, range(b**d - 1))
    # stems run several digits past the support, so the chain's cells reach
    # the closed form below the first full cylinder, and both walks go a
    # few digits deeper than the stem
    digit = st.integers(0, b - 1)
    child_maxima = lambda word: cell_child_maxima(fresh, word)
    for _ in range(3):
        stem = tuple(data.draw(st.lists(digit, min_size=h.support + 3, max_size=h.support + 8)))
        x, depth = Point(b, stem, data.draw(digit)), len(stem) + 4
        limits = range(depth + 1)
        got = point_words(h, [x] * len(limits), limits)
        assert got == reference_point_words(child_maxima, b, [x] * len(limits), limits)
        assert h.evaluate(x, depth) == reference_evaluate(child_maxima, b, x, depth)


@given(st.integers(0, 2**200 - 2))
def test_identity_entry_at_depth_200_is_a_cylinder_max(i):
    assert maxima_at(identity(2), 200, [i]) == (Point(2, rank_word(i, 200, 2), 1),)


# -- points built without validation, and the closed-form cylinder walk ----


def assert_canonical(p):
    """p is field for field the Point the validating constructor builds."""
    assert type(p.stem) is tuple
    fresh = Point(p.base, p.stem, p.tail)
    assert (p.base, p.stem, p.tail) == (fresh.base, fresh.stem, fresh.tail)


@settings(max_examples=80, deadline=None)
@given(filterings(bases=(2, 3, 4, 5)), nested_maps(), st.data())
def test_greedy_points_are_canonical(f, h, data):
    b, s = f.base, f.support
    words = st.lists(st.integers(0, b - 1), max_size=s + 3).map(tuple)
    got = []
    for d in range(1, s + 4):
        if b**d <= 4096:
            got += f.fingerprint(d)
    batch = data.draw(st.lists(words, min_size=1, max_size=6))
    for word in batch:
        got += cell_child_maxima(f, word)
        got.append(f.cell_maxima([word])[word])
    got += f.cell_maxima(batch).values()
    hb = h.base
    for d in range(1, 4 if hb == 2 else 3):
        got += h.fingerprint(d)
    batch = data.draw(st.lists(st.lists(st.integers(0, hb - 1), max_size=6).map(tuple), max_size=4))
    for word in batch:
        got += cell_child_maxima(h, word)
        got.append(h.cell_maxima([word])[word])
    got += h.cell_maxima(batch).values()
    # factor images: the h-images of a composite's fingerprint
    g = compose(from_filtering(random_filtering(random.Random(s), hb, 2)), h)
    got += factor_through(g, h, 2).levels[-1]
    # exact images of cell ends and of random points of every tail
    digit = st.integers(0, hb - 1)
    xs = [Point(hb, tuple(data.draw(st.lists(digit, max_size=6))), data.draw(digit)) for _ in range(6)]
    xs += [p for y in h.cell_maxima(batch).values() if not y.is_max for p in (y, interval_successor(y))]
    got += [e.exact for e in h.evaluate_all(xs, h.support + 8) if e.exact is not None]
    for p in got:
        assert_canonical(p)


def test_cell_chain_below_a_full_cylinder_follows_x():
    # the identity's cells are cylinders: the walk cut at depth d gives x's
    # first d digits, and x = v 0 1^w or v 1 0^w is first an end of [v]
    stem = tuple(random.Random(7).randrange(2) for _ in range(39))
    for x in (Point(2, stem + (0,), 1), Point(2, stem + (1,), 0)):
        limits = range(46)
        got = point_words(identity(2), [x] * len(limits), limits)
        assert got == [(x.prefix(min(d, 40)), d >= 40) for d in limits]


@pytest.mark.parametrize("b", [2, 3])
def test_cell_chain_matches_reference_deep_below_the_support(b):
    rng = random.Random(b)
    f = random_filtering(rng, b, 3)
    walk, depth = ReferenceWalk(f), f.support + 24
    child_maxima = lambda word: reference_child_maxima(walk, word)
    xs = [Point(b, tuple(rng.randrange(b) for _ in range(30)), t) for t in range(b)]
    ends = [reference_cell(walk, tuple(rng.randrange(b) for _ in range(depth - 2))) for _ in range(3)]
    xs += [p for c in ends for p in (c.lo, c.hi)]
    for x in xs:
        limits = range(depth + 1)
        got = point_words(f, [x] * len(limits), limits)
        assert got == reference_point_words(child_maxima, b, [x] * len(limits), limits)


# -- one descent for a batch: cell maxima by word, image words by point -----


def reference_cell_max(h, word, walks):
    """A chain's cell maximum is the inner one at the outer's stem, down
    to the reference walks of its filtering factors (one walk each, kept in
    `walks`)."""
    if isinstance(h, ChainSurjection):
        y = reference_cell_max(h.outer, word, walks)
        return y if y.is_max else reference_cell_max(h.inner, y.stem, walks)
    walk = walks.setdefault(id(h), ReferenceWalk(h))
    return reference_cell(walk, word).hi


def batch_words(draw, b, s, deepest):
    """Words shorter than, at and deeper than support s, two of them ending
    in top digits, and every word of the first depth below s when that
    level is small."""
    digit = st.integers(0, b - 1)
    words = draw(st.lists(st.lists(digit, max_size=deepest).map(tuple), min_size=1, max_size=8))
    words += [(0,) * s, (b - 1,) * s] + [w + (b - 1,) * draw(st.integers(1, 3)) for w in words[:2]]
    if b ** (s + 1) <= 256:
        words += [rank_word(r, s + 1, b) for r in range(b ** (s + 1))]
    return words


@settings(max_examples=80, deadline=None)
@given(filterings(bases=(2, 3, 4, 5)), st.booleans(), st.data())
def test_cell_maxima_match_cell_max_and_reference(f, build_first, data):
    b, s = f.base, f.support
    words = batch_words(data.draw, b, s, s + 6)
    depth = data.draw(st.integers(s + 1, s + 4))
    if build_first and b**depth <= 4096:
        f.fingerprint(depth)  # words to that depth are read from known levels, deeper ones descend from it
        assert len(f._known) > depth
    got = f.cell_maxima(words)
    fresh, walk = Filtering(b, f.levels), ReferenceWalk(f)
    assert set(got) == set(words)
    for w in words:
        assert got[w] == fresh.cell_maxima([w])[w] == reference_cell(walk, w).hi
        assert cell(fresh, w) == reference_cell(walk, w)


@settings(max_examples=40, deadline=None)
@given(filterings(bases=(2, 3, 4)), st.data())
def test_cell_maxima_at_known_depths_build_no_level(f, data):
    # a batch of mixed depths at or below the support is read off the
    # stored levels: no level is built, asked for or descended to
    b, s = f.base, f.support
    words = data.draw(st.lists(st.lists(st.integers(0, b - 1), max_size=s).map(tuple), min_size=1, max_size=20))
    calls, build = [], Filtering._level
    Filtering._level = lambda self, depth: calls.append(depth) or build(self, depth)
    try:
        got = f.cell_maxima(words)
    finally:
        Filtering._level = build
    stored = ((),) + f.levels
    assert calls == [] and f._cell_memo == {}
    for w in words:
        level, r = stored[len(w)], word_rank(w, b)
        assert got[w] == (level[r] if r < len(level) else max_point(b))


def test_a_descent_starts_at_the_deepest_known_level(monkeypatch):
    # once a greedy level is built, the words one level deeper descend
    # from its cells: each cell of that level is split once, and no other
    split, cells = intervals._greedy_split, []
    monkeypatch.setattr(intervals, "_greedy_split", lambda top, lo, hi, n: cells.append((lo, hi)) or split(top, lo, hi, n))
    rng = random.Random(3)
    for b, s, depth in [(2, 0, 3), (2, 2, 4), (3, 1, 3), (3, 2, 3), (4, 1, 2)]:
        f = random_filtering(rng, b, s)
        level, below = f.fingerprint(depth), Filtering(b, f.levels).fingerprint(depth + 1)
        cells.clear()
        got = f.cell_maxima([rank_word(r, depth + 1, b) for r in range(b ** (depth + 1))])
        his = [y.stem for y in level] + [()]
        los = [()] + [stem[:-1] + (stem[-1] + 1,) for stem in his[:-1]]
        assert sorted(cells) == sorted(zip(los, his))
        assert [got[rank_word(r, depth + 1, b)] for r in range(len(below))] == list(below)


def test_a_level_built_twice_is_stored_once_at_its_depth(monkeypatch):
    # a second build of the same levels while the first is under way, as
    # from another thread, stores equal levels in place: one per depth
    f = random_filtering(random.Random(7), 2, 2)
    want = [Filtering(2, f.levels).fingerprint(d) for d in range(6)]
    points, raced = intervals.canonical_points, []

    def racing(b, stems, tail):
        if not raced:
            raced.append(None)
            raced[0] = f.fingerprint(5)
        return points(b, stems, tail)

    monkeypatch.setattr(intervals, "canonical_points", racing)
    assert f.fingerprint(5) == want[5] and raced == [want[5]]
    assert f._known == want
    assert f.cell_maxima([(0,) * 5, (1,) * 6]) == Filtering(2, f.levels).cell_maxima([(0,) * 5, (1,) * 6])


def test_threads_building_levels_of_one_filtering_agree():
    f = random_filtering(random.Random(9), 3, 1)
    want = [Filtering(3, f.levels).fingerprint(d) for d in range(7)]
    threads = [threading.Thread(target=f.fingerprint, args=(d,)) for d in (6, 4, 5, 6, 3, 6, 2, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert f._known == want


@settings(max_examples=60, deadline=None)
@given(nested_maps(), st.booleans(), st.data())
def test_chain_cell_maxima_match_cell_max_and_reference(h, pull_first, data):
    b = h.base
    words = batch_words(data.draw, b, h.support, h.support + 4)
    if pull_first:
        h.fingerprint(2)  # some maxima are in the filterings' cell memos
    got, fresh, walks = h.cell_maxima(words), surjection_from_json(h.to_json()), {}
    assert set(got) == set(words)
    for w in words:
        assert got[w] == fresh.cell_maxima([w])[w] == reference_cell_max(h, w, walks)
    for w in words[:3]:
        assert cell_child_maxima(h, w) == tuple(reference_cell_max(h, w + (p,), walks) for p in range(b - 1))


def recursive_cell_maxima(h, words):
    """A chain's batch by recursion on its tree: the outer's batch, then one
    inner batch for the distinct stems of the outer maxima."""
    if not isinstance(h, ChainSurjection):
        return h.cell_maxima(words)
    ys = recursive_cell_maxima(h.outer, words)
    pulled = recursive_cell_maxima(h.inner, {y.stem for y in ys.values()})
    return {w: pulled[y.stem] for w, y in ys.items()}


def recursive_level(h, depth):
    """A chain's level by recursion on its tree: the outer's level, pulled
    through the inner map."""
    if not isinstance(h, ChainSurjection):
        return h.fingerprint(depth)
    ys = recursive_level(h.outer, depth)
    pulled = recursive_cell_maxima(h.inner, {y.stem for y in ys})
    return tuple(pulled[y.stem] for y in ys)


def tree_leaves(h):
    return tree_leaves(h.outer) + tree_leaves(h.inner) if isinstance(h, ChainSurjection) else [h]


@settings(max_examples=60, deadline=None)
@given(nested_maps(max_factors=30, shapes=("left", "right", "balanced")), st.data())
def test_flat_chain_matches_recursive_evaluation(h, data):
    # the flat tuple is the tree's leaves, outer first, and its one loop
    # answers as the recursion on the tree does, on a decoded copy whose
    # filterings share no memo with h's
    b = h.base
    assert list(getattr(h, "maps", (h,))) == tree_leaves(h)
    words = data.draw(st.lists(st.lists(st.integers(0, b - 1), max_size=6).map(tuple), min_size=1, max_size=8))
    got, fresh, walks = h.cell_maxima(words), surjection_from_json(h.to_json()), {}
    assert got == recursive_cell_maxima(fresh, words)
    for w in words[:3]:
        assert got[w] == reference_cell_max(h, w, walks)
    for depth in (1, 2, 3) if b == 2 else (1, 2):
        assert h.fingerprint(depth) == recursive_level(fresh, depth)


@settings(max_examples=60, deadline=None)
@given(filterings(bases=(2, 3, 4, 5)), st.data())
def test_cell_memo_answers_equal_a_fresh_filtering(f, data):
    # interleaved batches of mixed depths that repeat words, with and
    # without level builds between them; the all-zero words share rank 0
    # at every depth, so a memo keyed by rank alone answers them wrongly
    b, s = f.base, f.support
    pool = batch_words(data.draw, b, s, s + 5) + [(0,) * (s + 1), (0,) * (s + 3), (b - 1,) * (s + 2)]
    fresh = Filtering(b, f.levels)
    for _ in range(data.draw(st.integers(2, 5))):
        if data.draw(st.booleans()):
            depth = data.draw(st.integers(s + 1, s + 3))
            if b**depth <= 4096:
                f.fingerprint(depth)  # fills the level memo
        words = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        got = f.cell_maxima(words)
        assert got == {w: Filtering(b, f.levels).cell_maxima([w])[w] for w in words}
        assert got == fresh.cell_maxima(words)
    # the memo holds only words its descent answered, each by its maximum
    assert all(len(w) > s for w in f._cell_memo)
    assert all(y == fresh.cell_maxima([w])[w] for w, y in f._cell_memo.items())


def test_a_second_chain_over_a_map_pulls_from_its_cell_memo(monkeypatch):
    rng = random.Random(11)
    outer = from_filtering(random_filtering(rng, 2, 2))
    h = from_filtering(random_filtering(rng, 2, 1))
    descents = []
    walk = Filtering._cell_ends
    monkeypatch.setattr(Filtering, "_cell_ends", lambda self, words: descents.append(self) or walk(self, words))
    first = compose(outer, h).fingerprint(5)
    assert h in descents and h._cell_memo
    descents.clear()
    # a fresh outer rebuilds its own levels, while every pulled stem is in h's memo
    second = ChainSurjection(surjection_from_json(outer.to_json()), h)
    assert not hasattr(second, "_memo") and "_memo" not in ChainSurjection.__slots__
    assert second.fingerprint(5) == first
    assert descents == []


def evaluated_images(h, xs):
    """The per-entry path: evaluate each x to corollary (i)'s bound."""
    out = []
    for x in xs:
        y = h.evaluate(x, h.support + len(x.stem)).exact
        if y is None:
            raise ValueError("image not stabilized within the requested digit budget")
        out.append(y)
    return out


def batch_images(h, xs):
    found = point_words(h, xs, [h.support + len(x.stem) for x in xs])
    if not all(hit for _, hit in found):
        raise ValueError("image not stabilized within the requested digit budget")
    return [Point(h.base, w, h.base - 1) for w, _ in found]


def image_entries(draw, h, deepest):
    """Ascending interior q-points: cell maxima of h and random points."""
    b, top = h.base, h.base - 1
    digit = st.integers(0, top)
    stems = draw(st.lists(st.lists(digit, min_size=1, max_size=deepest).map(tuple), max_size=12))
    xs = {Point(b, stem, top) for stem in stems}
    words = draw(st.lists(st.lists(digit, min_size=1, max_size=deepest).map(tuple), max_size=12))
    xs |= set(h.cell_maxima(words).values())
    return sorted(x for x in xs if x.is_q_point)


def outcome(fn, h, xs):
    try:
        return fn(h, xs)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(filterings(bases=(2, 3, 4, 5)), nested_maps(), st.data())
def test_batch_images_match_evaluate(f, chain, data):
    for h in (f, chain):
        xs = image_entries(data.draw, h, h.support + 5)
        assert batch_images(h, xs) == evaluated_images(h, xs)


@settings(max_examples=80, deadline=None)
@given(filterings(bases=(2, 3, 4, 5)), st.data())
def test_batch_images_with_support_set_short(f, data):
    # both paths read the support slot alone: with it set short, the last
    # stored level is ignored, cells are split greedily one level early and
    # the bound is one short.  The cells stay nested, so the bound holds,
    # except for a slot of -1 (support 0 set short), where no entry is a
    # cell maximum within it
    short = Filtering(f.base, f.levels)
    short.support -= 1
    xs = image_entries(data.draw, f, f.support + 4)
    got = outcome(batch_images, short, xs)
    assert got == outcome(evaluated_images, short, xs)
    assert isinstance(got, str) == (short.support < 0 and bool(xs))


def test_batch_images_refuse_past_the_bound_like_evaluate():
    # a slot of -1 on the identity: c top^w is first a cell maximum at
    # depth |c|, one past the bound |c| - 1
    h = identity(2)
    h.support = -1
    xs = [q(0, 0), q(0), q(1, 0)]
    want = outcome(evaluated_images, h, xs)
    assert want == "image not stabilized within the requested digit budget"
    assert outcome(batch_images, h, xs) == want
    with pytest.raises(ValueError, match=want):
        tuple_to_factor(h, BoundaryTuple(2, 2, tuple(xs)))


@settings(max_examples=30, deadline=None)
@given(nested_maps(), st.data())
def test_factor_images_match_evaluate_on_a_fingerprint(h, data):
    # tuple_to_factor's entries: a composite's whole fingerprint
    b, d = h.base, 3 if h.base == 2 else 2
    g = compose(from_filtering(random_filtering(random.Random(data.draw(st.integers(0, 99))), b, 2)), h)
    xs = list(g.fingerprint(d))
    assert batch_images(h, xs) == evaluated_images(h, xs)
    assert factor_through(g, h, d).fingerprint(d) == g.outer.fingerprint(d)


# -- one point walk for evaluate and factor images -----------------------------


@st.composite
def walk_cases(draw):
    """A filtering map of base 2-5 or a chain, and ascending points with
    limits 0-30: both ends of drawn cells, each with a limit at the cell's
    depth, one below it or drawn; points of every tail; the extreme points."""
    if draw(st.booleans()):
        h = draw(nested_maps())
    else:
        h = draw(filterings(bases=(2, 3, 4, 5)))
    b, s = h.base, h.support
    digit, limit = st.integers(0, b - 1), st.integers(0, 30)
    pairs = []
    for w in draw(st.lists(st.lists(digit, max_size=s + 6).map(tuple), max_size=5)):
        r, d = word_rank(w, b), len(w)
        got = h.cell_maxima([w] + ([rank_word(r - 1, d, b)] if r else []))
        lo = interval_successor(got[rank_word(r - 1, d, b)]) if r else min_point(b)
        for x in (lo, got[w]):
            pairs.append((x, draw(st.sampled_from([d, max(d - 1, 0), draw(limit)]))))
    for _ in range(draw(st.integers(0, 6))):
        x = Point(b, tuple(draw(st.lists(digit, max_size=s + 10))), draw(digit))
        pairs.append((x, draw(limit)))
    pairs += [(min_point(b), draw(limit)), (max_point(b), draw(limit))]
    pairs.sort(key=lambda pair: pair[0])
    return h, [x for x, _ in pairs], [n for _, n in pairs]


@settings(max_examples=200, deadline=None)
@given(walk_cases())
def test_point_words_match_the_reference_chain(case):
    h, xs, limits = case
    fresh = surjection_from_json(h.to_json())  # no memo shared with h
    want = reference_point_words(lambda w: cell_child_maxima(fresh, w), h.base, xs, limits)
    assert point_words(h, xs, limits) == want


@settings(max_examples=100, deadline=None)
@given(walk_cases(), st.integers(0, 30), st.randoms(use_true_random=False))
def test_evaluate_all_is_evaluate_per_point_in_any_order(case, digits, rnd):
    h, xs, _ = case
    rnd.shuffle(xs)
    fresh = surjection_from_json(h.to_json())
    assert h.evaluate_all(xs, digits) == [fresh.evaluate(x, digits) for x in xs]


def test_chain_pull_refuses_an_outer_maximum_not_eventually_max():
    # unvalidated outer data: a stored maximum with tail 0
    h = compose(Filtering(2, ((Point(2, (0,), 0),),)), identity(2))
    for pull in (lambda: h.fingerprint(1), lambda: h.cell_maxima([(0,)]), lambda: h.evaluate(q(0), 2)):
        with pytest.raises(ValueError, match="needs an eventually-max point"):
            pull()
