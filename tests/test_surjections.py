import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import balanced, nested_maps, q, surjections
from cantorsurj.intervals import MATERIALIZE_LIMIT, Filtering, Surjection, validate_filtering
from cantorsurj.points import Point, interval_successor, iter_points, max_point, min_point
from cantorsurj.randgen import increasing_q_points, random_filtering
from cantorsurj.surjections import (
    BoundaryTuple,
    ChainSurjection,
    DistanceResult,
    FactorizationError,
    compose,
    distance,
    factor_through,
    from_filtering,
    identity,
    surjection_from_json,
    to_filtering,
    truncate,
    tuple_to_factor,
    tuple_to_factors,
    tuple_to_surjection,
)

SKEW = from_filtering(Filtering(2, ((q(0, 0),),)))


def test_evaluate_identity():
    e = identity(2)
    got = e.evaluate(Point(2, (0, 1), 0), 8)
    assert got.exact == Point(2, (0, 1), 0)
    assert got.digits == (0, 1, 0, 0, 0, 0, 0, 0)
    assert e.evaluate(max_point(2), 4).exact == max_point(2)


def test_evaluate_skew():
    # the whole left cell [0000..., 0011...] collapses onto [0000..., 0111...]
    assert SKEW.evaluate(q(0, 0), 8).exact == q(0)
    assert SKEW.evaluate(min_point(2), 8).exact == min_point(2)
    assert SKEW.evaluate(max_point(2), 8).exact == max_point(2)
    long_stem = Point(2, (0, 1) * 6, 0)
    inexact = SKEW.evaluate(long_stem, 4)
    assert inexact.exact is None and len(inexact.digits) == 4
    assert SKEW.evaluate(long_stem, 32).exact is not None


@given(surjections(), st.data())
def test_evaluate_monotone(h, data):
    pool = [x for x in iter_points(2, 6)]
    x = data.draw(st.sampled_from(pool))
    y = data.draw(st.sampled_from(pool))
    if y < x:
        x, y = y, x
    assert h.evaluate(x, 12).digits <= h.evaluate(y, 12).digits


@given(surjections(), st.integers(1, 3), st.data())
def test_preimage_max_adjunction(h, depth, data):
    t = h.fingerprint(depth)
    y = data.draw(st.sampled_from(list(t) + [max_point(2)]))
    # the maximum of the preimage of {x : x <= y} is the cell maximum at y's stem
    x = h.cell_maxima([y.stem])[y.stem]
    assert h.evaluate(x, 64).exact == y


def test_boundary_tuple_validation():
    BoundaryTuple(2, 1, (q(0, 0),))
    with pytest.raises(ValueError):
        BoundaryTuple(2, 2, (q(0),))  # wrong arity
    with pytest.raises(ValueError):
        BoundaryTuple(2, 1, (min_point(2),))  # not eventually max
    with pytest.raises(ValueError):
        BoundaryTuple(2, 2, (q(0), q(0, 0), q(1, 0)))  # out of order


@pytest.mark.parametrize("depth", [22, 100000, 10**8])
def test_boundary_tuple_past_materialize_limit_refused_at_once(depth):
    # the level's length is refused before b^depth is computed
    code = (
        "from cantorsurj.intervals import validate_level\n"
        "from cantorsurj.surjections import BoundaryTuple\n"
        f"print(validate_level(3, {depth}, ()).message)\n"
        f"BoundaryTuple(3, {depth}, ())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    want = f"depth {depth} has 0 entries, needs more than {MATERIALIZE_LIMIT}; over limit\n"
    assert out.returncode == 1 and out.stdout == want and out.stderr.endswith(f"ValueError: {want}")


def test_fingerprints():
    e = identity(2)
    assert e.fingerprint(2) == (q(0, 0), q(0), q(1, 0))
    assert SKEW.fingerprint(1) == (q(0, 0),)
    # chain fingerprint: pull outer boundaries back through the inner map
    assert compose(SKEW, e).fingerprint(1) == (q(0, 0),)
    assert compose(e, SKEW).fingerprint(1) == (q(0, 0),)


def test_distance_goldens():
    e = identity(2)
    assert str(distance(e, SKEW)) == "2^0"
    twist = from_filtering(Filtering(2, ((q(0),), (q(0, 0, 0), q(0), q(1, 0)))))
    assert str(distance(e, twist)) == "2^-1"
    assert str(distance(SKEW, SKEW)) == "0 (to cap 64)"
    assert str(distance(e, from_filtering(Filtering(2, ())))) == "0 (to cap 64)"


def test_distance_chain_guard():
    a = compose(identity(2), SKEW)
    b = compose(SKEW, identity(2))
    # extensionally equal chains in different factorizations: both split
    # greedily from their support on, so agreement there is exact
    assert str(distance(a, b)) == "0 (to cap 64)"
    assert str(distance(a, a)) == "0 (to cap 64)"
    assert distance(a, b, guard=12) == distance(a, b)  # accepted, ignored


def test_distance_rejects_cap_below_one():
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be positive"):
            distance(identity(2), SKEW, cap=cap)


def _filtering_map(seed, base, support):
    return from_filtering(random_filtering(random.Random(seed), base, support))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_chain_support_is_sum_of_supports(b, s_f, s_h, seed):
    # f o h splits greedily from s_f + s_h on (ChainSurjection docstring), so
    # re-extending its first s_f + s_h levels reproduces it at every depth
    f, h = _filtering_map(seed, b, s_f), _filtering_map(seed + 1, b, s_h)
    chain = compose(f, h)
    assert chain.support == s_f + s_h
    depth = max(s_f + s_h + 3, 10) if b == 2 else max(s_f + s_h + 2, 6)
    assert chain.fingerprint(depth) == truncate(chain, s_f + s_h).fingerprint(depth)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_nested_chain_support_is_sum_of_supports(s_f, s_g, s_h, seed):
    chain = compose(compose(_filtering_map(seed, 2, s_f), _filtering_map(seed + 1, 2, s_g)),
                    _filtering_map(seed + 2, 2, s_h))
    s = s_f + s_g + s_h
    assert chain.support == s
    depth = max(s + 3, 10)
    assert chain.fingerprint(depth) == truncate(chain, s).fingerprint(depth)


@settings(max_examples=40, deadline=None)
@given(surjections(), st.data())
def test_distance_to_truncation_matches_deeper_scan(h, data):
    assert str(distance(h, truncate(h, h.support))) == "0 (to cap 64)"
    g = truncate(h, data.draw(st.integers(0, h.support)))
    depth = h.support + 3
    m = next((d - 1 for d in range(1, depth + 1) if h.fingerprint(d) != g.fingerprint(d)), None)
    assert distance(h, g) == (DistanceResult("zero", 64) if m is None else DistanceResult("exact", m))


@settings(max_examples=40, deadline=None)
@given(surjections(), surjections())
def test_distance_symmetric(f, g):
    assert str(distance(f, g, cap=12)) == str(distance(g, f, cap=12))


@settings(max_examples=60)
@given(surjections(chain_prob=0.0), surjections(chain_prob=0.0), surjections(chain_prob=0.0))
def test_distance_ultrametric(f, g, h):
    # 2^-m shrinks as the agreement depth m grows; a zero answer agrees to the cap
    dfh = distance(f, h, cap=10).agree_depth
    dfg = distance(f, g, cap=10).agree_depth
    dgh = distance(g, h, cap=10).agree_depth
    assert dfh >= min(dfg, dgh)


def stored_scan_distance(f, g, cap=64):
    """The reference distance: the level scan to the deeper stored support."""
    for d in range(1, min(cap, max(f.support, g.support)) + 1):
        if f.fingerprint(d) != g.fingerprint(d):
            return DistanceResult("exact", d - 1)
    return DistanceResult("zero", cap)


def least_support_oracle(h):
    """The least s whose first s levels, re-extended greedily, are h."""
    return next(s for s in range(h.support + 1) if stored_scan_distance(to_filtering(h, s), h).kind == "zero")


def greedy_then_not():
    """Stored levels off the greedy rule at depth 1, on it at depth 2 and
    off it again at depth 3: least support 3, though depth 2 is greedy."""
    l1 = (q(0, 0),)  # greedy would be q(0)
    l3 = list(Filtering(2, (l1,)).fingerprint(3))
    assert l3[6] == q(1, 0)  # the last cell's greedy pick
    l3[6] = q(1, 0, 0)
    return from_filtering(Filtering(2, (l1, Filtering(2, (l1,)).fingerprint(2), tuple(l3))))


def random_level_below(rng, b, above):
    """A random level nested in `above`, drawn as random_filtering draws one."""
    entries, lo = [], min_point(b)
    for hi in above:
        entries += increasing_q_points(rng, lo, hi, b - 1) + [hi]
        lo = interval_successor(hi)
    return tuple(entries + increasing_q_points(rng, lo, max_point(b), b - 1))


@st.composite
def supported_maps(draw):
    """Maps whose least support is often below the stored one: nested maps,
    their truncations past the support, identity o h o identity, chains of
    such truncations, and filterings whose stored levels turn greedy and then
    stop being greedy."""
    h = draw(nested_maps())
    b, rng = h.base, random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["map", "truncation", "sandwich", "chain", "greedy-then-not"]))
    if kind == "truncation":
        return to_filtering(h, draw(st.integers(0, h.support + 2)))
    if kind == "sandwich":
        return compose(compose(identity(b), h), identity(b))
    if kind == "chain":
        maps = [to_filtering(g, g.support + rng.randint(0, 2)) for g in (h, draw(nested_maps(bases=(b,))))]
        return balanced(maps + [identity(b)])
    if kind == "greedy-then-not":
        if b == 3 and h.support > 2:
            h = to_filtering(h, 2)
        levels = to_filtering(h, h.support + draw(st.integers(1, 2))).levels
        return from_filtering(Filtering(b, levels + (random_level_below(rng, b, levels[-1]),)))
    return h


def test_least_support_walks_back_past_a_greedy_level():
    f = greedy_then_not()
    assert f.least_support() == least_support_oracle(f) == 3
    assert distance(f, to_filtering(f, 1)) == DistanceResult("exact", 2)
    support_one = from_filtering(Filtering(2, (identity(2).fingerprint(1),)))
    chain = compose(support_one, compose(identity(2), support_one))
    assert (support_one.least_support(), chain.least_support(), chain.support) == (0, 0, 2)


@settings(max_examples=150, deadline=None)
@given(supported_maps())
def test_least_support_matches_the_oracle(h):
    # exact for a filtering; for a chain the sum over its maps, which step 3
    # of the chain proof makes an upper bound of the oracle
    if isinstance(h, Filtering):
        assert h.least_support() == least_support_oracle(h)
    else:
        assert least_support_oracle(h) <= h.least_support() == sum(m.least_support() for m in h.maps) <= h.support


@settings(max_examples=200, deadline=None)
@given(supported_maps(), st.data())
def test_distance_matches_the_stored_support_scan(f, data):
    b = f.base
    g = data.draw(st.one_of(
        st.integers(0, f.support + 1).map(lambda d: to_filtering(f, d)),
        st.just(compose(compose(identity(b), f), identity(b))),
        supported_maps().filter(lambda g: g.base == b),
    ))
    for cap in (64, 2):
        assert distance(f, g, cap) == distance(g, f, cap) == stored_scan_distance(f, g, cap)


def test_a_pair_differing_at_depth_one_reads_no_least_support(monkeypatch):
    def refuse(self):
        raise AssertionError("least_support read")

    monkeypatch.setattr(Filtering, "least_support", refuse)
    monkeypatch.setattr(ChainSurjection, "least_support", refuse)
    deep = compose(greedy_then_not(), SKEW)
    assert distance(identity(2), SKEW) == distance(deep, identity(2)) == DistanceResult("exact", 0)


@given(surjections(), st.data())
def test_compose_associates_pointwise(h, data):
    g = compose(SKEW, h)
    x = data.draw(st.sampled_from(h.fingerprint(3)))
    inner = h.evaluate(x, 64).exact
    assert inner is not None
    assert g.evaluate(x, 64).exact == SKEW.evaluate(inner, 64).exact


@settings(max_examples=60)
@given(surjections(max_depth=2), surjections(max_depth=2))
def test_factor_roundtrip(f, h):
    g = compose(f, h)
    got = factor_through(g, h, 4)
    assert got.fingerprint(4) == f.fingerprint(4)
    t = g.boundary_tuple(4)
    via_tuple = tuple_to_factor(h, t)
    assert compose(via_tuple, h).fingerprint(4) == t.entries


@settings(max_examples=150)
@given(nested_maps(), st.data())
def test_q_point_is_cell_max_by_support_plus_stem(h, data):
    # corollary (i): x = c top^w is a cell maximum of h by depth
    # h.support + len(c), so the image is exact there and pulls back to x
    top = h.base - 1
    stem = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=5 if h.base == 2 else 3))
    x = Point(h.base, tuple(stem), top)
    assume(x.is_q_point)
    y = h.evaluate(x, h.support + len(x.stem)).exact
    assert y is not None and h.cell_maxima([y.stem])[y.stem] == x


def test_q_point_bound_is_tight():
    # the identity's cells are cylinders: c top^w is first a cell max at depth |c|
    x = q(0, 1, 0)
    assert identity(2).evaluate(x, 2).exact is None
    assert identity(2).evaluate(x, 3).exact == x


def test_factor_deep_boundary_needs_no_cap():
    # a stem-10 boundary is a cell maximum of the identity at depth 10, the
    # bound corollary (i) gives; no depth cap is read
    deep = from_filtering(Filtering(2, ((q(0, 0, 0, 0, 0, 0, 0, 0, 0, 0),),)))
    got = factor_through(deep, identity(2), 1)
    assert got.to_json() == deep.to_json()
    assert compose(got, identity(2)).fingerprint(4) == deep.fingerprint(4)


def test_tuple_to_surjection():
    e = identity(2)
    t = e.boundary_tuple(2)
    assert tuple_to_surjection(t).fingerprint(2) == t.entries


def reference_subsample_levels(base, depth, entries):
    """Levels 1..depth forced by a depth-`depth` boundary tuple, entry by
    entry: by nesting, depth-d entry i sits at position
    b^(depth-d) * (i+1) - 1."""
    return tuple(
        tuple(entries[base ** (depth - d) * (i + 1) - 1] for i in range(base**d - 1))
        for d in range(1, depth + 1)
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_tuple_to_surjection_levels_are_the_subsamples(b, k, seed, chain):
    # fingerprints of random filterings and chains: the slices are the
    # forced levels, and they pass the filtering validator unchanged
    rng = random.Random(seed)
    h = from_filtering(random_filtering(rng, b, rng.randint(0, 3 if b == 2 else 2)))
    if chain:
        h = compose(from_filtering(random_filtering(rng, b, rng.randint(0, 2))), h)
    t = h.boundary_tuple(k)
    got = tuple_to_surjection(t)
    assert got.levels == reference_subsample_levels(b, k, t.entries)
    assert validate_filtering(got).ok
    assert got.fingerprint(k) == t.entries


def test_factor_refuses_a_map_that_misstates_its_support():
    # the walk reads greedy cells from the stated support on, so a map whose
    # stored levels lie below it gets wrong images; only the composed check
    # sees that, in factor_through and tuple_to_factor alike, whether h's
    # cell memo is empty or another chain over h has filled it
    levels = ((q(0, 0),),)
    t = compose(identity(2), from_filtering(Filtering(2, levels))).boundary_tuple(2)
    for warm in (False, True):
        h = from_filtering(Filtering(2, levels))
        if warm:
            compose(identity(2), h).fingerprint(4)
            assert h._cell_memo
        h.support = 0
        g = compose(identity(2), h)
        for solve in (lambda: tuple_to_factor(h, t), lambda: factor_through(g, h, 2)):
            with pytest.raises(FactorizationError, match="composed fingerprint does not reproduce the tuple") as err:
                solve()
            assert err.value.depth == 2
    # batched, a failing tuple between good ones raises as it does alone,
    # the first in input order; depth 2's stored level has its left half
    # off the greedy rule, so only tuples in the right half come out good
    h = from_filtering(Filtering(2, ((q(0),), (q(0, 0, 0), q(0), q(1, 0)))))
    h.support = 1
    good = [BoundaryTuple(2, 1, (q(1, 0),)), BoundaryTuple(2, 2, (q(0), q(1, 0), q(1, 1, 0)))]
    bad = [BoundaryTuple(2, 1, (q(0, 0),)), BoundaryTuple(2, 2, (q(0, 0), q(0), q(1, 0)))]
    assert [f.levels for f in tuple_to_factors(h, good)] == [tuple_to_factor(h, t).levels for t in good]
    for first, second in (bad, bad[::-1]):
        with pytest.raises(FactorizationError) as alone:
            tuple_to_factor(h, first)
        with pytest.raises(FactorizationError) as batched:
            tuple_to_factors(h, [good[0], first, good[1], second])
        assert (str(batched.value), batched.value.depth) == (str(alone.value), alone.value.depth) == (
            "composed fingerprint does not reproduce the tuple", first.depth)


def test_an_empty_factor_batch_walks_nothing(monkeypatch):
    import cantorsurj.surjections as surjections

    def refuse(*args):
        raise AssertionError("an empty batch walked")

    monkeypatch.setattr(surjections, "point_words", refuse)
    assert tuple_to_factors(SKEW, []) == []


@st.composite
def factor_batches(draw):
    """An inner map h, a filtering, a chain or identity o f in bases 2-4,
    and a batch of random increasing sub-tuples of its fingerprints at
    mixed depths.  h may state a support one below its own: then a tuple
    of cell maxima above the stated support still factors, and one with
    deeper entries may fail the composed check, so good and failing tuples
    meet in one batch."""
    b = draw(st.sampled_from([2, 3, 4]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    deepest = 3 if b == 2 else 2
    h = from_filtering(random_filtering(rng, b, rng.randint(0, deepest)))
    kind = draw(st.sampled_from(["filtering", "chain", "identity o f"]))
    if kind != "filtering":
        h = compose(identity(b) if kind == "identity o f" else from_filtering(random_filtering(rng, b, 2)), h)
    ts = []
    for _ in range(draw(st.integers(0, 6))):
        k = draw(st.integers(1, 2))
        pool = h.fingerprint(draw(st.integers(k, k + (2 if b == 2 else 1))))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=b**k - 1, max_size=b**k - 1, unique=True))
        ts.append(BoundaryTuple(b, k, tuple(pool[i] for i in sorted(picks))))
    h.support -= draw(st.integers(0, min(1, h.support)))
    return h, ts


@settings(max_examples=200, deadline=None)
@given(factor_batches())
def test_factor_batch_is_the_tuples_one_by_one(batch):
    # the batch answers what one call per tuple answers: the same factors,
    # or, where some call fails, the walk's refusal before any composed
    # check and otherwise the first failing tuple's, in input order
    h, ts = batch
    alone = []
    for t in ts:
        try:
            alone.append(tuple_to_factor(h, t))
        except ValueError as err:
            alone.append(err)
    errors = [got for got in alone if isinstance(got, ValueError)]
    errors.sort(key=lambda err: isinstance(err, FactorizationError))
    if not errors:
        assert [f.levels for f in tuple_to_factors(h, ts)] == [f.levels for f in alone]
        return
    with pytest.raises(ValueError) as batched:
        tuple_to_factors(h, ts)
    want = errors[0]
    assert (type(batched.value), str(batched.value)) == (type(want), str(want))
    assert getattr(batched.value, "depth", None) == getattr(want, "depth", None)


def test_to_filtering():
    assert to_filtering(SKEW, 1).to_json() == Filtering(2, ((q(0, 0),),)).to_json()
    # truncation below the support, greedy extension above it
    assert to_filtering(SKEW, 0).to_json() == Filtering(2, ()).to_json()
    assert to_filtering(SKEW, 2).support == 2


@given(surjections())
def test_json_roundtrip(h):
    back = surjection_from_json(h.to_json())
    assert type(back) is type(h)
    assert back.fingerprint(4) == h.fingerprint(4)
    if isinstance(h, ChainSurjection):
        assert back.to_json() == h.to_json()


def test_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        surjection_from_json({"kind": "mystery"})


def test_a_chain_past_any_stack_decodes_and_answers():
    # decoding is a loop: no depth of nesting recurses
    h = identity(2).to_json()
    for _ in range(4999):
        h = {"b": 2, "kind": "chain", "outer": h, "inner": identity(2).to_json()}
    assert surjection_from_json(h).boundary_tuple(2) == identity(2).boundary_tuple(2)


MYSTERY, OTHER = {"kind": "mystery"}, {"kind": "other"}


@pytest.mark.parametrize(
    "obj, error, message",
    [
        ((2,), ValueError, "expected a surjection object, got tuple"),
        ((), ValueError, "expected a surjection object, got tuple"),
        ({"b": 2, "kind": "chain", "outer": [identity(2).to_json()]}, ValueError, "surjection object, got list"),
        ({"b": 2, "kind": "chain"}, KeyError, "'outer'"),
        ({"b": "x", "kind": "chain"}, ValueError, "chain b: expected an integer"),
        ({"b": "x", "kind": "chain", "outer": MYSTERY, "inner": OTHER}, ValueError, "chain b: expected an integer"),
        ({"b": 2, "kind": "chain", "outer": MYSTERY, "inner": OTHER}, ValueError, "kind 'mystery'"),
        ({"b": 2, "kind": "chain", "outer": MYSTERY}, ValueError, "kind 'mystery'"),
        ({"b": 2, "kind": "chain", "outer": {"b": "x", "kind": "chain"}, "inner": OTHER}, ValueError, "chain b: "),
        ({"b": 2, "kind": "chain", "outer": identity(3).to_json(), "inner": OTHER}, ValueError, "kind 'other'"),
        ({"b": 2, "kind": "chain", "outer": compose(identity(2), identity(2)).to_json() | {"b": 3},
          "inner": identity(2).to_json()}, ValueError, "chain b 3 but its maps have base 2"),
    ],
    ids=["tuple", "empty-tuple", "list-part", "no-parts", "bad-b-no-parts", "bad-b-bad-parts",
         "bad-outer-bad-inner", "bad-outer-no-inner", "outer-chain-bad-b", "parts-of-two-bases-bad-inner",
         "nested-chain-b"],
)
def test_json_reports_the_first_fault_in_decoding_order(obj, error, message):
    # a chain's b, then its outer part read and decoded, then its inner part
    # read, and the bases checked once both parts are built
    with pytest.raises(error, match=message):
        surjection_from_json(obj)


def test_identity_is_filtering_surjection():
    e = identity(3)
    assert isinstance(e, Filtering)
    assert e.fingerprint(1) == (Point(3, (0,), 2), Point(3, (1,), 2))


def test_a_filtering_is_its_own_surjection():
    # no wrapper: the constructors hand back the filtering itself
    f = Filtering(2, ((q(0, 0),),))
    assert from_filtering(f) is f
    assert type(identity(2)) is Filtering and issubclass(Filtering, Surjection)
    chain = compose(SKEW, SKEW)
    assert isinstance(truncate(chain, 2), Surjection)
    for got in (truncate(chain, 2), to_filtering(chain, 2), tuple_to_surjection(chain.boundary_tuple(2)),
                tuple_to_factor(SKEW, chain.boundary_tuple(2)), surjection_from_json(SKEW.to_json())):
        assert type(got) is Filtering
    assert not hasattr(f, "__dict__") and not hasattr(chain, "__dict__")
