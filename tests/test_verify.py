import json
from dataclasses import replace

import pytest

from conftest import q
from cantorsurj import experiments, verify
from cantorsurj.experiments import ColoringSpec, QCopy
from cantorsurj.intervals import ClopenInterval, Filtering
from cantorsurj.points import Point, max_point
from cantorsurj.surjections import FactorizationError, compose, from_filtering, identity
from cantorsurj.verify import (
    CHECK_NAMES,
    CHECKS,
    TANGENT_FIRST_FIVE,
    CheckResult,
    count_updown,
    replay,
    run_suite,
    taylor_tangent,
)


def test_oracles_agree():
    assert taylor_tangent(5) == TANGENT_FIRST_FIVE == (1, 2, 16, 272, 7936)
    assert tuple(count_updown(2 * k - 1) for k in range(1, 5)) == (1, 2, 16, 272)


def test_check_rows():
    assert [row.index for row in CHECKS] == list(range(1, 10))
    assert [row.name for row in CHECKS] == [
        "tangent-oracles", "type-counts", "bijection-roundtrip", "monoid-laws", "metric-criterion",
        "factorization", "color-realization", "omega-witnesses", "oscillation-exact",
    ]
    assert CHECK_NAMES == {row.index: row.name for row in CHECKS}


def test_suite_and_replay_read_one_row(monkeypatch):
    # a predicate swapped in one row fails in the suite and in replay alike
    def always_fails(case):
        return {"criterion": 2, "planted": True}

    rows = tuple(replace(row, predicate=always_fails) if row.index == 2 else row for row in CHECKS)
    monkeypatch.setattr(verify, "CHECKS", rows)
    (result,) = run_suite(42, {2}).results
    assert not result.passed
    assert result.failures == ('{"criterion":2,"planted":true}',)
    assert not replay(json.loads(result.failures[0]))


def test_run_subset():
    rep = run_suite(42, only={1, 2})
    assert rep.passed
    assert [r.index for r in rep.results] == [1, 2]
    out = rep.render()
    assert out.startswith("cantorsurj verify seed=42\n")
    assert out.endswith("2/2 passed, seed=42\n")
    assert "ok   1 tangent-oracles" in out
    assert "ok   2 type-counts" in out


def test_run_subset_deterministic():
    a = run_suite(42, only={1, 7})
    b = run_suite(42, only={1, 7})
    assert a.render() == b.render()
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_other_seed_passes():
    assert run_suite(7, only={1}).passed


def test_check_result_json():
    r = CheckResult(3, "bijection-roundtrip", False, "1 failure", ('{"criterion":3}',))
    j = r.to_json()
    assert j["failures"] == [{"criterion": 3}]
    assert not j["passed"]


def test_replay_passing_dumps():
    filt = Filtering(2, ((q(0, 0),),))
    assert replay({"criterion": 3, "filtering": filt.to_json(), "depth": 3})
    copy = QCopy.unrestricted(identity(2))
    assert replay({"criterion": 8, "copy": copy.to_json(), "target": 2})


SKEW = from_filtering(Filtering(2, ((q(0, 0),),)))


def _passing_dump(criterion: int) -> dict:
    """A dump in the shape the suite writes, for inputs on which the
    criterion holds."""
    e, chain = identity(2), compose(SKEW, SKEW)
    if criterion == 1:
        table = list(TANGENT_FIRST_FIVE)
        return {"criterion": 1, "zigzag": table, "taylor": table, "brute": table}
    if criterion == 2:
        return {"criterion": 2, "counts": [1, 2, 16, 272], "want": [1, 2, 16, 272]}
    if criterion == 3:
        filt = Filtering(3, ((Point(3, (0, 1), 2), Point(3, (1, 0), 2)),))
        return {"criterion": 3, "filtering": filt.to_json(), "depth": 2}
    if criterion == 4:
        return {"criterion": 4, "f": SKEW.to_json(), "g": chain.to_json(), "h": e.to_json(),
                "assoc": False, "left_id": False, "right_id": False}
    if criterion == 5:
        return {"criterion": 5, "f": e.to_json(), "g": chain.to_json(),
                "distance": "2^0", "sampled_exponent": None}
    if criterion == 6:
        return {"criterion": 6, "f": SKEW.to_json(), "h": chain.to_json(), "factor_ok": False}
    if criterion == 7:
        return {"criterion": 7, "h": SKEW.to_json(), "missing": [0]}
    if criterion == 8:
        piece = ClopenInterval(Point(2, (1,), 0), max_point(2))
        return {"criterion": 8, "copy": QCopy(SKEW, (piece,)).to_json(), "target": 1,
                "error": "color 0"}
    spec = ColoringSpec(2, 2, 3, "relabeled_types", relabel=tuple(i % 3 for i in range(16)))
    return {"criterion": 9, "spec": spec.to_json(), "labels": []}


@pytest.mark.parametrize("criterion", range(1, 10))
def test_replay_passing_dump_per_criterion(criterion):
    # replay re-runs the suite's predicate, so true inputs replay to True
    # whatever verdict fields the dump carries
    assert replay(_passing_dump(criterion))


def test_replay_failing_dump():
    copy = QCopy.unrestricted(identity(2))
    # every target from 0 up is reachable; a negative one keeps failing
    assert not replay({"criterion": 8, "copy": copy.to_json(), "target": -1})


def test_replay_rejects_unknown():
    with pytest.raises(ValueError):
        replay({"criterion": 99})


# -- planted faults: each changed check fails, and its dump replays to False


def _first_dump(check: int) -> dict:
    (result,) = run_suite("42", {check}).results
    assert not result.passed and result.failures, result.detail
    dump = json.loads(result.failures[0])
    assert not replay(dump)
    return dump


def test_check3_catches_a_non_greedy_first_level(monkeypatch):
    # the first greedy level, with its entry 0 moved from x = c top^w to
    # c 0 top^w: still valid (below x, no entry before it) and nested
    # (deeper levels are built on it), but no longer the greedy pick
    level = Filtering._level

    def non_greedy(self, depth):
        d = self.support + 1
        if len(self._known) == d and depth >= d:
            built = level(self, d)
            x = built[0]
            self._known[d] = (Point(self.base, x.stem + (0,), x.tail), *built[1:])
        return level(self, depth)

    monkeypatch.setattr(Filtering, "_level", non_greedy)
    dump = _first_dump(3)
    assert dump["depth"] == Filtering.from_json(dump["filtering"]).support + 1


def test_check6_catches_a_wrong_factor(monkeypatch):
    monkeypatch.setattr(verify, "factor_through", lambda g, h, depth: identity(g.base))
    assert _first_dump(6)["factor_ok"] is False


def test_check6_records_a_refused_factorization(monkeypatch):
    def refuse(g, h, depth):
        raise FactorizationError("planted refusal", depth=depth)

    monkeypatch.setattr(verify, "factor_through", refuse)
    assert _first_dump(6)["error"] == "planted refusal"


def test_check9_catches_an_unordered_witness(monkeypatch):
    rows = experiments._identity_realization

    def swapped(b, k, depth_cap, budget):
        rep = rows(b, k, depth_cap, budget)
        row = rep.realizations[0]
        w = row.witness
        bad = replace(row, witness=(w[1], w[0], *w[2:]))
        return replace(rep, realizations=(bad, *rep.realizations[1:]))

    monkeypatch.setattr(experiments, "_identity_realization", swapped)
    assert _first_dump(9)["spec"]["kind"] == "relabeled_types"
