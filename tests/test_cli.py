import argparse
import copy
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import MALFORMED_POINTS, diagonal_points, q
from cantorsurj import experiments, intervals, surjections
from cantorsurj.cli import _emit, build_parser, main
from cantorsurj.experiments import QCopy, random_qcopy
from cantorsurj.intervals import MATERIALIZE_LIMIT, BoundaryTuple, ClopenInterval, Filtering
from cantorsurj.points import Point, max_point, min_point
from cantorsurj.randgen import derive_rng
from cantorsurj.similarity import diagonal_levels, type_rank
from cantorsurj.surjections import FactorizationError, compose, from_filtering, identity, surjection_from_json


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@pytest.mark.parametrize(
    "obj",
    [
        {"a": [], "b": {}, "c": [[], {}, {"z": [1, {"y": []}]}]},
        [],
        {},
        list(range(40_000)),  # more chunks than one write batch
    ],
    ids=["nested-empties", "empty-list", "empty-dict", "many-batches"],
)
def test_emit_matches_json_dumps(capsys, obj):
    _emit(obj)
    assert capsys.readouterr().out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@given(JSON_VALUES)
def test_emit_matches_json_dumps_random(obj):
    out = io.StringIO()
    with redirect_stdout(out):
        _emit(obj)
    assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_tangent(capsys):
    code, out, _ = run(capsys, "tangent", "4")
    assert code == 0 and out == "272\n"


def test_types(capsys):
    code, out, _ = run(capsys, "types", "2")
    got = json.loads(out)
    assert code == 0 and got["count"] == 2
    assert got["types"] == [[1, 0, 2], [2, 0, 1]]


def test_type_of_fingerprint(capsys, files):
    pts = files("pts.json", [p.to_json() for p in identity(2).fingerprint(2)])
    code, out, _ = run(capsys, "type-of", pts)
    got = json.loads(out)
    # nested tuple: legitimately answered as non-diagonal, color 0
    assert code == 0 and not got["diagonal"] and got["color"] == 0
    assert got["levels"] is None


def test_type_of_diagonal(capsys, files):
    pts = files("pts.json", [q(0, 0, 0).to_json(), q(0, 0, 1, 0).to_json()])
    code, out, _ = run(capsys, "type-of", pts)
    got = json.loads(out)
    assert got["diagonal"] and got["levels"] == [1, 0, 2] and got["color"] == 0


def test_color_devlin(capsys, files):
    pts = files("pts.json", {"points": [q(0, 0, 0, 0).to_json(), q(0, 1, 0).to_json()]})
    code, out, _ = run(capsys, "color-devlin", pts)
    assert code == 0 and out == "1\n"


@pytest.mark.parametrize("levels", [(12, 0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6), (3, 1, 2, 0, 12, 4, 11, 5, 10, 6, 9, 7, 8)])
def test_seven_leaf_tuples_are_colored(capsys, files, levels):
    pts = diagonal_points(levels)
    path = files("pts.json", [p.to_json() for p in pts])
    color = type_rank(diagonal_levels(pts))
    code, out, _ = run(capsys, "type-of", path)
    assert code == 0 and json.loads(out) == {"l": 7, "diagonal": True, "color": color, "levels": list(levels)}
    assert run(capsys, "color-devlin", path) == (0, f"{color}\n", "")


@pytest.mark.parametrize("verb", ["type-of", "color-devlin"])
def test_points_over_rank_bound_exit_2(capsys, files, monkeypatch, verb):
    import cantorsurj.cli as cli

    def refuse(*args):
        raise AssertionError("coloring started")

    monkeypatch.setattr(cli, "diagonal_levels", refuse)
    monkeypatch.setattr(cli, "type_rank", refuse)
    path = files("pts.json", [p.to_json() for p in identity(2).fingerprint(10)[:831]])
    code, out, err = run(capsys, verb, path)
    assert code == 2 and out == ""
    assert err == f"error: {path}: 831 points; types are ranked up to 830 leaves\n"


def test_search_type(capsys, files):
    surj = files("id.json", identity(2).to_json())
    code, out, _ = run(capsys, "search-type", surj, "--levels", "1,0,2")
    got = json.loads(out)
    assert code == 0 and got["depth"] == 2 and len(got["found"]) == 2
    assert not got["exhausted"]


def test_eval(capsys, files):
    surj = files("h.json", from_filtering(Filtering(2, ((q(0, 0),),))).to_json())
    code, out, _ = run(capsys, "eval", surj, "--point", '{"b":2,"stem":[0,0],"tail":1}')
    got = json.loads(out)
    assert code == 0 and got["exact"] == {"b": 2, "stem": [0], "tail": 1}


def test_compose_and_factor(capsys, files, tmp_path):
    inner = files("h.json", from_filtering(Filtering(2, ((q(0, 0),),))).to_json())
    outer = files("id.json", identity(2).to_json())
    code, out, _ = run(capsys, "compose", outer, inner)
    assert code == 0
    chain = tmp_path / "chain.json"
    chain.write_text(out)
    code, out, _ = run(capsys, "factor", str(chain), inner, "--depth", "2")
    got = json.loads(out)
    assert code == 0 and got["depth"] == 2


def test_factor_failure_dump(capsys, files):
    # a failed composed check exits 1 with a fixed-shape dump; a valid
    # surjection never reaches it, so the failure is injected
    surj = files("id.json", identity(2).to_json())
    error = FactorizationError("composed fingerprint does not reproduce the tuple", depth=2)
    with patch("cantorsurj.cli.factor_through", side_effect=error):
        code, out, err = run(capsys, "factor", surj, surj, "--depth", "2")
    want = {"depth": 2, "error": "composed fingerprint does not reproduce the tuple", "witness": None}
    assert (code, out, err) == (1, json.dumps(want, indent=2, sort_keys=True) + "\n", "")


def test_dist_tokens(capsys, files):
    a = files("id.json", identity(2).to_json())
    b = files("h.json", from_filtering(Filtering(2, ((q(0, 0),),))).to_json())
    assert run(capsys, "dist", a, b) == (0, "2^0\n", "")
    assert run(capsys, "dist", a, a) == (0, "0 (to cap 64)\n", "")
    code, out, _ = run(capsys, "dist", a, a, "--cap", "8")
    assert out == "0 (to cap 8)\n"


def test_dist_is_exact_for_chains(capsys, files):
    skew = from_filtering(Filtering(2, ((q(0, 0),),)))
    a = files("a.json", compose(identity(2), skew).to_json())
    b = files("b.json", compose(skew, identity(2)).to_json())
    assert run(capsys, "dist", a, b) == (0, "0 (to cap 64)\n", "")


def _q_json(*stem):
    return {"b": 2, "stem": list(stem), "tail": 1}


# one support-2 filtering, one support-1 inner map, and their chain, as literal JSON
PIN_FILTERING = {"b": 2, "depth": 2, "boundaries": [[_q_json(0, 0)], [_q_json(0, 0, 0), _q_json(0, 0), _q_json(1, 0)]]}
PIN_INNER = {"b": 2, "depth": 1, "boundaries": [[_q_json(1, 0)]]}
PIN_CHAIN = {"b": 2, "kind": "chain", "outer": PIN_FILTERING, "inner": PIN_INNER}
PIN_POINT = '{"b":2,"stem":[0,1,0],"tail":1}'
PIN_IDENTITY = {"b": 2, "depth": 0, "boundaries": []}
# depth-2 colorings: 16 types onto 3 labels, a constant, and two table keys
# (the identity's fingerprint and PIN_FILTERING's) over a default
PIN_RELABELED = {"b": 2, "k": 2, "colors": 3, "kind": "relabeled_types", "relabel": [i % 3 for i in range(16)]}
PIN_CONSTANT = {"b": 2, "k": 2, "colors": 2, "kind": "constant", "value": 1}
PIN_TABLE = {"b": 2, "k": 2, "colors": 3, "kind": "table", "table": {"00|0|10": 1, "000|00|10": 2}, "default": 0}
# a strongly diagonal 3-tuple (levels 2,0,3,1,4) and a two-piece copy of PIN_FILTERING
PIN_POINTS = [_q_json(0, 0), _q_json(1, 0, 0), _q_json(1, 1, 0, 0)]
PIN_COPY = {
    "surjection": PIN_FILTERING,
    "restrictions": [
        {"lo": {"b": 2, "stem": [0, 1], "tail": 0}, "hi": _q_json(1, 0, 1)},
        {"lo": {"b": 2, "stem": [1, 1, 0], "tail": 0}, "hi": {"b": 2, "stem": [], "tail": 1}},
    ],
}

# sha256 of each verb's stdout on the pinned maps, recorded before filterings
# became surjections themselves; the realize-all and oscillation pins were
# recorded before oscillation read its type witnesses from realize_all_colors
CLI_STDOUT_SHA256 = {
    "compose": "74199a2e3a41ec53ea9f1658b34c549bcf5282ac84fd768b71b3ed683a71ee0b",
    "factor": "7d39494a7a87d4166dfd9a6ccea0780d0c7373a80c5708d73069987bebc3ec76",
    "boundaries-filtering": "82642bc4cafaf193ecfb1f78652deae50dba6ef3107cd8b9600724933787f123",
    "boundaries-chain": "b2df7e3f3172c4357959f79101c4c0d9cb1b84b62857c767cc3a50ed9f971b1a",
    "eval-filtering": "5a63add73e686f870a8e021ee6efbbbbd94c43050d5cf2447e8cb92c2b50b6f5",
    "eval-chain": "c7b1ed13dbb6344d2c25333d0fcd8c3ac9a2dc865fe407efd1a5275643b4cc86",
    "dist": "fae3a0c581e3f2dadf3b776b077a3fba8ddcfc85c76ca755b5249bc3ef7b658c",
    "realize-all-identity": "881ab66c752a283b5c155074c315ed354dce8fff8929cc5094f2b2c8d10d7062",
    "realize-all-filtering": "e0104695d66f8cd76a0604497eb73a26c02973d4fba8a18efe22273929962531",
    # no witness within the cap, so an empty certificate batch; one color at k=1
    "realize-all-capped": "c920676f3b38ffe36eae91133553bc38c9d7148b5efc61c0cc4868733d9c4d74",
    "realize-all-one-color": "a7f002124d8fc9580bae4c8667a1e8afef5c53acb17af87b234b1e298696228e",
    "oscillation-relabeled": "2999bb0c8766aef23c0f7f5119f0b2274e0322f2f769e6d39e18ead3b4fb53ca",
    "oscillation-constant": "ee95998cefed07ab1dc80a4e8948bd7203a53a99f42d1424cc42086b2b102a1e",
    "oscillation-table": "3a021411bb41c73512f82cd3ad9b1f905b1600ba9b4b15e5bd38899212ce0b25",
    # these nine were recorded while search-type still read a report of its
    # own: a type found at depth 4, one the depth cap stops at 2, one the
    # budget stops at 3
    "search-type-found": "139170c40e4179dc20f8f18e4c19ed8c3abff24c25eaed2500b482c688f43aa3",
    "search-type-capped": "94a2d46ccba9b352feb089cc3fe28502e376e325448b672cd707076cb37c045d",
    "search-type-budget": "bdaebcd86342f2c058aec1bc57d8af63c072fe66ff4c7e4fa405bb41dc5e5f13",
    "tangent": "192b72b04e05c741791b358fa12439c1b22557e0310d615f89b4e1a71b1a1d1b",
    "types": "020eea7dbc17c31887b41c81db2a4399dd04fd6a34c5ea8192ad1968355e4bf2",
    "type-of": "4487d3af4d0ee63b4df8c5efd1a32a740ff5d0119d190383ba04ca849545b5bc",
    "color-devlin": "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
    "color-omega": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    "witness-omega": "049fa25f6561eab48cf5bbbbee06a4f475295ae33477ad249f4092acc34d5c83",
}

PINNED_RUNS = [
    ("compose", ["compose", "F", "H"]),
    ("factor", ["factor", "C", "H", "--depth", "2"]),
    ("boundaries-filtering", ["boundaries", "F", "--depth", "3"]),
    ("boundaries-chain", ["boundaries", "C", "--depth", "3"]),
    ("eval-filtering", ["eval", "F", "--point", PIN_POINT, "--digits", "8"]),
    ("eval-chain", ["eval", "C", "--point", PIN_POINT, "--digits", "8"]),
    ("dist", ["dist", "F", "C"]),
    ("realize-all-identity", ["realize-all", "I", "--k", "2"]),
    ("realize-all-filtering", ["realize-all", "F", "--k", "2"]),
    ("realize-all-capped", ["realize-all", "I", "--k", "2", "--depth-cap", "1"]),
    ("realize-all-one-color", ["realize-all", "I", "--k", "1"]),
    ("oscillation-relabeled", ["oscillation", "R", "--eps", "0.3"]),
    ("oscillation-constant", ["oscillation", "K", "--eps", "0.3"]),
    ("oscillation-table", ["oscillation", "T", "--eps", "0.3"]),
    ("search-type-found", ["search-type", "I", "--levels", "2,0,3,1,4"]),
    ("search-type-capped", ["search-type", "I", "--levels", "2,0,3,1,4", "--depth-cap", "2"]),
    ("search-type-budget", ["search-type", "I", "--levels", "4,0,3,1,2", "--budget", "50"]),
    ("tangent", ["tangent", "5"]),
    ("types", ["types", "3"]),
    ("type-of", ["type-of", "P"]),
    ("color-devlin", ["color-devlin", "P"]),
    ("color-omega", ["color-omega", "Y"]),
    ("witness-omega", ["witness-omega", "Y", "--target", "2"]),
]


@pytest.mark.parametrize("name, argv", [pytest.param(name, argv, id=name) for name, argv in PINNED_RUNS])
def test_cli_stdout_is_pinned(capsys, files, name, argv):
    pinned = {"F": PIN_FILTERING, "H": PIN_INNER, "C": PIN_CHAIN, "I": PIN_IDENTITY,
              "R": PIN_RELABELED, "K": PIN_CONSTANT, "T": PIN_TABLE, "P": PIN_POINTS, "Y": PIN_COPY}
    code, out, err = run(capsys, *[files(f"{a}.json", pinned[a]) if a in pinned else a for a in argv])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_STDOUT_SHA256[name]


def test_every_verb_has_a_stdout_pin():
    # verify's stdout is pinned by the acceptance hashes (test_c10)
    verbs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(verbs) - {"verify"} <= {argv[0] for _, argv in PINNED_RUNS}
    assert {name for name, _ in PINNED_RUNS} == CLI_STDOUT_SHA256.keys()


CAPPED_VERBS = [
    ("color-omega", "--cap"),
    ("witness-omega", "--cap"),
    ("realize-all", "--depth-cap"),
    ("search-type", "--depth-cap"),
]


@pytest.mark.parametrize(
    "verb, flag, cap",
    [pytest.param("dist", "--cap", cap, id=cap) for cap in ("0", "-1")]
    + [
        pytest.param(verb, flag, cap, id=f"{verb}-{cap}")
        for verb, flag in CAPPED_VERBS
        for cap in ("0", "-1")
    ],
)
def test_dist_cap_below_one_exits_2(capsys, files, verb, flag, cap):
    a = files("id.json", identity(2).to_json())
    b = files("h.json", from_filtering(Filtering(2, ((q(0, 0),),))).to_json())
    copy = files("y.json", QCopy.unrestricted(identity(2)).to_json())
    argv = {
        "dist": [a, b],
        "color-omega": [copy],
        "witness-omega": [copy, "--target", "0"],
        "realize-all": [a, "--k", "1"],
        "search-type": [a, "--levels", "1,0,2"],
    }[verb]
    code, out, err = run(capsys, verb, *argv, flag, cap)
    assert code == 2 and out == "" and err == f"error: cap must be positive, got {cap}\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize(
    "verb, spec",
    [
        pytest.param("realize-all", None, id="realize-all"),
        pytest.param("search-type", None, id="search-type"),
        pytest.param("oscillation", PIN_RELABELED, id="oscillation-relabeled"),
        pytest.param("oscillation", PIN_CONSTANT, id="oscillation-constant"),
    ],
)
def test_scan_budget_below_one_exits_2(capsys, files, monkeypatch, verb, spec, budget):
    import cantorsurj.similarity as similarity

    def refuse(*args):
        raise AssertionError("a type scan started")

    monkeypatch.setattr(similarity, "_walk_diagonal", refuse)
    a = files("id.json", identity(2).to_json())
    argv = {
        "realize-all": [a, "--k", "1"],
        "search-type": [a, "--levels", "1,0,2"],
        "oscillation": [files("spec.json", spec), "--eps", "0.3"],
    }[verb]
    code, out, err = run(capsys, verb, *argv, "--budget", budget)
    assert code == 2 and out == "" and err == f"error: budget must be positive, got {budget}\n"


def test_boundaries(capsys, files):
    surj = files("id.json", identity(2).to_json())
    code, out, _ = run(capsys, "boundaries", surj, "--depth", "2")
    got = json.loads(out)
    assert code == 0 and len(got["entries"]) == 3
    assert got["entries"][1] == {"b": 2, "stem": [0], "tail": 1}


def test_color_omega(capsys, files):
    copy = files("y.json", QCopy.unrestricted(identity(2)).to_json())
    code, out, _ = run(capsys, "color-omega", copy)
    assert code == 0 and out == "0\n"


def test_witness_omega(capsys, files):
    copy = files("y.json", QCopy.unrestricted(identity(2)).to_json())
    code, out, _ = run(capsys, "witness-omega", copy, "--target", "2")
    got = json.loads(out)
    assert code == 0 and got["color"] == 2


@pytest.mark.parametrize("argv", [["color-omega"], ["witness-omega", "--target", "2"]])
@pytest.mark.parametrize("extra", [[], [ClopenInterval.whole(2).to_json()]])
def test_omega_copy_with_a_base_3_piece_exits_2(capsys, files, argv, extra):
    y = dict(QCopy.unrestricted(identity(2)).to_json(), restrictions=[*extra, ClopenInterval.whole(3).to_json()])
    copy = files("y.json", y)
    code, out, err = run(capsys, argv[0], copy, *argv[1:])
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {copy}: restriction ") and "is base 3; copies are base-2 only" in err


def test_omega_copy_of_a_base_3_map_exits_2(capsys, files):
    y = {"surjection": identity(3).to_json(), "restrictions": [ClopenInterval.whole(3).to_json()]}
    copy = files("y.json", y)
    assert run(capsys, "color-omega", copy) == (2, "", f"error: {copy}: surjection is base 3; copies are base-2 only\n")


def test_witness_omega_ignores_cap(capsys, files):
    # a positive --cap is still accepted; the witness lies past it
    copy = files("y.json", QCopy.unrestricted(identity(2)).to_json())
    code, out, err = run(capsys, "witness-omega", copy, "--target", "40", "--cap", "6")
    got = json.loads(out)
    assert code == 0 and err == "" and got["color"] == 40
    assert run(capsys, "color-omega", files("z.json", got["copy"]), "--cap", "6") == (0, "40\n", "")


@pytest.mark.parametrize("copy", ["identity", "seed-42"])
@pytest.mark.parametrize("target", ["70", "100000"])
def test_witness_omega_deep_target_exits_0(files, copy, target):
    y = QCopy.unrestricted(identity(2)) if copy == "identity" else random_qcopy(derive_rng(42, "x"))
    path = files("y.json", y.to_json())
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "witness-omega", path, "--target", target],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0 and out.stderr == ""
    assert json.loads(out.stdout)["color"] == int(target)


def test_witness_omega_target_over_limit_exits_2_at_once(files):
    path = files("y.json", QCopy.unrestricted(identity(2)).to_json())
    target = str(MATERIALIZE_LIMIT)
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "witness-omega", path, "--target", target],
        capture_output=True, text=True, timeout=30,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr == (
        f"error: target {target} needs a witness node deeper than {target}; over limit {MATERIALIZE_LIMIT}\n"
    )


def test_realize_all(capsys, files):
    surj = files("id.json", identity(2).to_json())
    code, out, _ = run(capsys, "realize-all", surj, "--k", "1")
    got = json.loads(out)
    assert code == 0 and got["complete"] and got["t"] == 1


@pytest.mark.parametrize(
    "argv", [["verify", "--seed", "42", "--only", "9"], ["realize-all", "F", "--k", "2"]], ids=["verify", "realize-all"]
)
def test_answers_do_not_read_the_environment(files, argv):
    argv = [files("id.json", identity(2).to_json()) if a == "F" else a for a in argv]
    outs = []
    for extra in ({}, {"RAMSEY_DEPTH_CAP": "3"}):
        env = {k: v for k, v in os.environ.items() if k != "RAMSEY_DEPTH_CAP"} | extra
        out = subprocess.run(
            [sys.executable, "-m", "cantorsurj", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        outs.append((out.returncode, out.stdout))
    assert outs[0][0] == 0 and outs[1] == outs[0]


def test_oscillation(capsys, files):
    spec = files(
        "spec.json",
        {"b": 2, "k": 2, "colors": 16, "kind": "relabeled_types", "relabel": list(range(16))},
    )
    code, out, _ = run(capsys, "oscillation", spec, "--eps", "0.3", "--seed", "0")
    got = json.loads(out)
    assert code == 0 and got["regime"] == "exact" and got["guaranteed"]


def test_oscillation_seed_is_optional_and_ignored(capsys, files):
    spec = files("spec.json", dict(TABLE_SPEC, table={"00|0|10": 3}))
    code, out, err = run(capsys, "oscillation", spec, "--eps", "0.3")
    assert code == 0 and err == "" and json.loads(out)["labels"] == [1, 3]
    assert run(capsys, "oscillation", spec, "--eps", "0.3", "--seed", "5") == (0, out, "")


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42", "--only", "1,2")
    assert code == 0
    assert out.startswith("cantorsurj verify seed=42\n")
    assert out.endswith("2/2 passed, seed=42\n")


def test_verify_json_flag(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "42", "--only", "1", "--json")
    got = json.loads(out)
    assert code == 0 and got["passed"] and got["seed"] == "42"


def test_malformed_input_exits_2(capsys, files, tmp_path):
    code, _, err = run(capsys, "type-of", str(tmp_path / "missing.json"))
    assert code == 2 and err.startswith("error:")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "color-devlin", str(bad))
    assert code == 2 and "bad.json" in err
    notpts = files("notpts.json", {"points": [{"b": 2, "stem": [0]}]})
    code, _, err = run(capsys, "type-of", notpts)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["boundaries", "F", "--depth", "1"], ["dist", "F", "F"], ["factor", "F", "F", "--depth", "1"], ["type-of", "F"]],
    ids=["boundaries", "dist", "factor", "type-of"],
)
@pytest.mark.parametrize(
    "text", ["[" * 2000 + "]" * 2000, '{"kind": "chain", "outer": ' * 2000 + "{}" + "}" * 2000], ids=["array", "chain"]
)
def test_json_nested_too_deeply_exits_2(capsys, tmp_path, argv, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    got = run(capsys, *[str(deep) if a == "F" else a for a in argv])
    assert got == (2, "", f"error: {deep}: JSON nested too deeply\n")


def nested_chain(n, leaf):
    h = leaf
    for _ in range(n - 1):
        h = {"b": 2, "kind": "chain", "outer": h, "inner": leaf}
    return h


SUPPORT_ONE = {"b": 2, "depth": 1, "boundaries": [[q(0).to_json()]]}


def run_capped(argv, timeout):
    """The CLI in a child process under a timeout and a 512 MiB address-space
    limit, set in the child only, so a runaway run fails fast."""
    limit = 512 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "cantorsurj", *argv], capture_output=True, text=True, timeout=timeout,
        preexec_fn=cap_memory,
    )


@pytest.mark.parametrize(
    "leaf, argv",
    [
        (identity(2).to_json(), ["boundaries", "F", "--depth", "2"]),
        (SUPPORT_ONE, ["dist", "F", "F"]),
        (SUPPORT_ONE, ["boundaries", "F", "--depth", "1"]),
        (SUPPORT_ONE, ["factor", "F", "F", "--depth", "1"]),
        (identity(2).to_json(), ["realize-all", "F", "--k", "1"]),
    ],
    ids=["boundaries-identity", "dist", "boundaries", "factor", "realize-all"],
)
def test_chain_nested_past_the_stack_answers_as_its_leaf(capsys, files, leaf, argv):
    # 600 nested maps are one flat tuple, evaluated in one loop; each map
    # equals its one-map leaf, and dist stops at the least supports, 0 here
    deep = files("deep.json", nested_chain(600, leaf))
    out = run_capped([deep if a == "F" else a for a in argv], timeout=60)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == run(capsys, *[files("leaf.json", leaf) if a == "F" else a for a in argv])[1]


def deep_chain_text(n):
    """The text of nested_chain(n, identity(2).to_json()), too deep for
    json.dumps in the test process."""
    leaf = json.dumps(identity(2).to_json())
    return '{"b": 2, "kind": "chain", "outer": ' * (n - 1) + leaf + (', "inner": ' + leaf + "}") * (n - 1)


@pytest.mark.parametrize(
    "n, verb, want",
    [
        (984, "boundaries", None),
        (984, "realize-all", None),
        (985, "boundaries", None),
        (985, "realize-all", None),
        (986, "boundaries", "error: {path}: JSON nested too deeply\n"),
    ],
    ids=["984-boundaries", "984-realize-all", "985-boundaries", "985-realize-all", "986-boundaries"],
)
def test_chain_nesting_answers_up_to_the_json_parsers_limit(capsys, files, tmp_path, n, verb, want):
    # the json parser takes 985 nested identity chains and decoding is a
    # loop, so each answers as the identity; 986 overflow the json parser
    extra = ["--depth", "2"] if verb == "boundaries" else ["--k", "1"]
    deep = tmp_path / "deep.json"
    deep.write_text(deep_chain_text(n))
    deep = str(deep)
    out = run_capped([verb, deep, *extra], timeout=60)
    if want is None:
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout == run(capsys, verb, files("id.json", identity(2).to_json()), *extra)[1]
    else:
        assert (out.returncode, out.stdout, out.stderr) == (2, "", want.format(path=deep))


def test_compose_of_two_chains_at_the_json_parsers_limit_does_not_crash(tmp_path):
    # both parts decode, but their composite nests one level past what the
    # parser reads back; whether compose writes it or refuses it is not
    # pinned, only that it ends as a verb ends, with no traceback
    deep = tmp_path / "deep.json"
    deep.write_text(deep_chain_text(985))
    out = run_capped(["compose", str(deep), str(deep)], timeout=120)
    assert out.returncode in (0, 2) and "Traceback" not in out.stderr
    if out.returncode == 2:
        assert out.stdout == "" and out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    else:
        assert out.stderr == "" and out.stdout.count('"kind": "chain"') == 2 * 984 + 1


def test_chain_nested_within_the_stack_still_answers(capsys, files):
    deep = files("deep.json", nested_chain(400, identity(2).to_json()))
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "boundaries", deep, "--depth", "2"], capture_output=True, text=True, timeout=120
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == run(capsys, "boundaries", files("id.json", identity(2).to_json()), "--depth", "2")[1]


def test_bad_levels_exits_2(capsys, files):
    surj = files("id.json", identity(2).to_json())
    code, _, err = run(capsys, "search-type", surj, "--levels", "0,1,2")
    assert code == 2 and err.startswith("error:")


def test_levels_over_leaf_bound_exit_2(capsys, files, monkeypatch):
    import cantorsurj.cli as cli

    def refuse(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(cli, "scan_types", refuse)
    surj = files("id.json", identity(2).to_json())
    levels = "7,3,8,1,9,4,10,0,11,5,12,2,13,6,14"  # a valid 8-leaf type
    code, out, err = run(capsys, "search-type", surj, "--levels", levels)
    assert code == 2 and out == ""
    assert err == "error: --levels: 8 leaves; types are enumerated up to 6\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tangent", "0"], "need n >= 1, got 0"),
        (["tangent", "831"], "tangent number 831 asked for; tangent numbers stop at 830"),
        (["types", "0"], "need leaves >= 1, got 0"),
        (["types", "7"], "enumeration capped at 6 leaves, got 7"),
    ],
    ids=["tangent-0", "tangent-831", "types-0", "types-7"],
)
def test_out_of_range_index_exits_2_in_the_library_words(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_tangent_index_over_print_limit_exits_2():
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "tangent", "831"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert "Traceback" not in out.stderr and out.stderr.count("\n") == 1


def test_missing_key_is_named(capsys, files):
    spec = files("spec.json", {"b": 2, "colors": 16, "kind": "constant", "value": 0})
    code, _, err = run(capsys, "oscillation", spec, "--eps", "0.3", "--seed", "0")
    assert code == 2 and err == f"error: {spec}: missing key 'k'\n"
    chain = files("c.json", {"b": 2, "kind": "chain", "inner": identity(2).to_json()})
    code, _, err = run(capsys, "boundaries", chain, "--depth", "1")
    assert code == 2 and err == f"error: {chain}: missing key 'outer'\n"


@pytest.mark.parametrize(
    "b, message",
    [
        (2.7, "chain b: expected an integer, got 2.7"),
        ("x", "chain b: expected an integer, got 'x'"),
        (3, "chain b 3 but its maps have base 2"),
        (None, "missing key 'b'"),
    ],
    ids=["float", "string", "other-base", "missing"],
)
def test_chain_base_is_decoded_strictly(capsys, files, b, message):
    chain = {"kind": "chain", "outer": identity(2).to_json(), "inner": identity(2).to_json()}
    if b is not None:
        chain["b"] = b
    c, h = files("c.json", chain), files("h.json", identity(2).to_json())
    assert run(capsys, "compose", c, h) == (2, "", f"error: {c}: {message}\n")


@pytest.mark.parametrize(
    "point",
    ['{"b":2,"stem":"0101","tail":1}', '{"b":2.7,"stem":[0],"tail":1}', '{"b":2,"stem":[0],"tail":true}'],
)
def test_non_integer_point_fields_exit_2(capsys, files, point):
    surj = files("id.json", identity(2).to_json())
    code, out, err = run(capsys, "eval", surj, "--point", point)
    assert code == 2 and out == "" and err.startswith("error: --point: malformed point")


@pytest.mark.parametrize("point, message", [case[1:] for case in MALFORMED_POINTS], ids=[c[0] for c in MALFORMED_POINTS])
def test_malformed_point_exit_2_line(capsys, files, point, message):
    surj = files("id.json", identity(2).to_json())
    code, out, err = run(capsys, "eval", surj, "--point", point)
    assert (code, out, err) == (2, "", f"error: --point: {message}\n")


def test_non_integer_filtering_base_exits_2(capsys, files):
    obj = from_filtering(Filtering(2, ((q(0, 0),),))).to_json()
    obj["b"] = 2.7
    surj = files("f.json", obj)
    code, out, err = run(capsys, "boundaries", surj, "--depth", "1")
    assert code == 2 and out == ""
    assert err == f"error: {surj}: filtering b: expected an integer, got 2.7\n"


@pytest.mark.parametrize("boundaries", ["", {}], ids=["string", "object"])
def test_non_list_boundaries_exit_2(capsys, files, boundaries):
    surj = files("f.json", {"b": 2, "boundaries": boundaries, "kind": "filtering"})
    code, out, err = run(capsys, "boundaries", surj, "--depth", "1")
    assert code == 2 and out == ""
    assert err == f"error: {surj}: filtering boundaries: expected a list of lists of points\n"


@pytest.mark.parametrize(
    "base, entries, message",
    [
        (2, (q(0, 0), q(0)), "depth 1 has 2 entries, needs 1"),
        (2, (Point(3, (0,), 2),), "entry 0 base 3 != 2"),
        (2, (Point(2, (0, 1), 0),), "entry 01(0)w not an interior eventually-max point"),
        (3, (Point(3, (1,), 2), Point(3, (0,), 2)), "entries 0,1 out of order at depth 1"),
    ],
    ids=["count", "base", "q-point", "increase"],
)
def test_json_input_cannot_reach_the_trusted_tuple(capsys, files, base, entries, message):
    # every decoder validates a faulty level, and none hands it to the
    # unvalidated constructor on the way
    calls, real = [], intervals.trusted_tuple

    def spy(*args):
        calls.append(args)
        return real(*args)

    level = [p.to_json() for p in entries]
    filt = {"b": base, "kind": "filtering", "depth": 1, "boundaries": [level]}
    chain = {"b": base, "kind": "chain", "outer": identity(base).to_json(), "inner": filt}
    decoders = [
        (Filtering.from_json, filt),
        (surjection_from_json, chain),
    ]
    good = files("id.json", identity(base).to_json())
    verbs = [
        ("boundaries", files("f.json", filt), "--depth", "1"),
        ("boundaries", files("chain.json", chain), "--depth", "2"),
        ("factor", files("g.json", chain), good, "--depth", "1"),
        ("eval", files("h.json", filt), "--point", json.dumps(min_point(base).to_json())),
    ]
    # the modules that import it; verify names no unvalidated constructor
    # (test_hygiene.py)
    modules = (intervals, surjections, experiments)
    with ExitStack() as stack:
        for module in modules:
            stack.enter_context(patch.object(module, "trusted_tuple", spy))
        for decode, obj in decoders:
            with pytest.raises(ValueError, match=re.escape(message)):
                decode(obj)
        for argv in verbs:
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and message in err
    assert calls == []


def test_realize_all_k_over_leaf_bound_exits_2(capsys, files):
    surj = files("id.json", identity(2).to_json())
    code, out, err = run(capsys, "realize-all", surj, "--k", "40")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: k=40 gives 2^40 - 1 leaves")


@pytest.mark.parametrize("field, value", [("k", 2.9), ("colors", True)])
def test_non_integer_coloring_spec_exits_2(capsys, files, field, value):
    obj = {"b": 2, "k": 2, "colors": 16, "kind": "relabeled_types", "relabel": list(range(16))}
    obj[field] = value
    spec = files("spec.json", obj)
    code, out, err = run(capsys, "oscillation", spec, "--eps", "0.3", "--seed", "0")
    assert code == 2 and out == ""
    assert err == f"error: {spec}: {field}: expected an integer, got {value!r}\n"


def test_eval_negative_digits_exits_2(capsys, files):
    surj = files("id.json", identity(2).to_json())
    code, out, err = run(capsys, "eval", surj, "--point", json.dumps(q(0).to_json()), "--digits", "-3")
    assert code == 2 and out == ""
    assert err == "error: digits must be nonnegative, got -3\n"


def test_eval_digits_over_materialize_limit_exits_2(capsys, files):
    surj = files("id.json", identity(2).to_json())
    digits = str(MATERIALIZE_LIMIT + 1)
    code, out, err = run(capsys, "eval", surj, "--point", json.dumps(q(0).to_json()), "--digits", digits)
    assert code == 2 and out == ""
    assert err == f"error: {digits} digits requested; over limit {MATERIALIZE_LIMIT}\n"


@pytest.mark.parametrize("verb", ["boundaries", "factor"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_depth_below_one_exits_2(capsys, files, verb, depth):
    surj = files("h.json", identity(2).to_json())
    argv = [verb, surj] + ([surj] if verb == "factor" else []) + ["--depth", depth]
    assert run(capsys, *argv) == (2, "", "error: depth must be >= 1\n")


def test_out_of_memory_exits_2(files):
    # a depth-21 level of 2^21 - 1 Points does not fit in 200 MiB of address
    # space; the limit is set in the child only
    limit = 200 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    surj = files("id.json", identity(2).to_json())
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "boundaries", surj, "--depth", "21"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: out of memory\n")


def test_eval_in_a_huge_base_builds_no_picks(files):
    # every cell of the identity is a full cylinder, known as such before
    # any of its b - 1 = 10^9 - 1 greedy picks is built; the limit is set in
    # the child only
    limit = 512 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    base = 10**9
    surj = files("id.json", identity(base).to_json())
    x = Point(base, (5, 7), 0)
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "eval", surj, "--point", json.dumps(x.to_json())],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout) == {"digits": [5, 7] + [0] * 22, "exact": x.to_json()}


def test_type_of_in_a_huge_base_reads_digits_not_bits(files):
    # node depths come from the base-b stems: a digit near 10^7 is not
    # written out as 10^7 bits; the limit is set in the child only
    limit = 300 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    base = 10**7
    stems = ([base - 3], [base - 2, 5], [base - 2, base - 3])
    pts = files("pts.json", [Point(base, tuple(s), base - 1).to_json() for s in stems])
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "type-of", pts],
        capture_output=True, text=True, timeout=30, preexec_fn=cap_memory,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout) == {"l": 3, "diagonal": True, "color": 0, "levels": [1, 0, 3, 2, 4]}


@pytest.mark.parametrize("verb", ["boundaries", "factor"])
@pytest.mark.parametrize("depth", ["22", "100000", "100000000"])
def test_depth_past_materialize_limit_exits_2_at_once(files, verb, depth):
    # a base-3 map: the depth is refused before 3^depth is computed or printed
    surj = files("h.json", identity(3).to_json())
    argv = [verb, surj] + ([surj] if verb == "factor" else []) + ["--depth", depth]
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", *argv], capture_output=True, text=True, timeout=30
    )
    assert out.returncode == 2 and out.stdout == ""
    want = f"error: depth {depth} fingerprint has more than {MATERIALIZE_LIMIT} entries; over limit\n"
    assert out.stderr == want


TABLE_SPEC = {"b": 2, "k": 2, "colors": 4, "kind": "table", "default": 1}


@pytest.mark.parametrize(
    "key, why",
    [
        ("1101", "1 stems, not 2^2 - 1"),
        ("00|0|11", "not an interior"),  # 11 top^w normalizes to the top point
        ("00|01|10", "is not canonical"),  # a stem ending in a top digit
        ("0|00|10", "out of order"),
        ("00|0|1x", "invalid literal"),
        ("00|0|", "not an interior eventually-max point"),
    ],
)
def test_oscillation_rejects_table_keys_that_never_match(capsys, files, key, why):
    spec = files("spec.json", dict(TABLE_SPEC, table={key: 3}))
    code, out, err = run(capsys, "oscillation", spec, "--eps", "0.3", "--seed", "0")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {spec}: table key {key!r}") and why in err


def test_oscillation_fine_eps_depth_mismatch_exits_2_before_work(capsys, files):
    # resolution 1e-20 needs depth 67; the color budget t_(2^67 - 1) is never computed
    spec = files("spec.json", {"b": 2, "k": 2, "colors": 7, "kind": "constant", "value": 5})
    code, out, err = run(capsys, "oscillation", spec, "--eps", "1e-20", "--seed", "0")
    assert code == 2 and out == "" and err.endswith("needs depth 67\n")


@pytest.mark.parametrize("eps", ["1e-10000000", "1e10000000"])
def test_oscillation_eps_with_huge_exponent_exits_2_at_once(files, eps):
    # Fraction would build 10^(10^7) and no message could print it
    spec = files("spec.json", {"b": 2, "k": 2, "colors": 7, "kind": "constant", "value": 5})
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "oscillation", spec, "--eps", eps],
        capture_output=True, text=True, timeout=5,
    )
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: --eps: ") and out.stderr.count("\n") == 1


# -- exit contract under random input ----------------------------------------

_SURJECTIONS = [
    identity(2).to_json(),
    identity(3).to_json(),
    from_filtering(Filtering(2, ((q(0, 0),),))).to_json(),
    compose(from_filtering(Filtering(2, ((q(0, 0),),))), identity(2)).to_json(),
]
_COPIES = [
    QCopy.unrestricted(identity(2)).to_json(),
    QCopy(from_filtering(Filtering(2, ((q(1, 0),),))), (ClopenInterval(min_point(2), q(0, 1)),)).to_json(),
]
_SPECS = [
    {"b": 2, "k": 2, "colors": 16, "kind": "relabeled_types", "relabel": list(range(16))},
    dict(TABLE_SPEC, table={"00|0|10": 3}),
    {"b": 2, "k": 2, "colors": 7, "kind": "constant", "value": 5},
]
_POINT_LISTS = [
    [p.to_json() for p in identity(2).fingerprint(2)],
    [p.to_json() for p in identity(3).fingerprint(1)],
    [q(0, 0).to_json(), q(1).to_json()],
    {"points": [q(0).to_json(), q(1, 0).to_json()]},
    [p.to_json() for p in diagonal_points((12, 0, 11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6))],
]
_KEYS = ["b", "k", "stem", "tail", "kind", "boundaries", "depth", "outer", "inner", "surjection",
         "restrictions", "lo", "hi", "colors", "relabel", "table", "default", "value", "00|0|10"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-4, 4) | st.text(max_size=8)
    | st.sampled_from(["filtering", "chain", "table", "constant", "relabeled_types", "1101"]),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw, seeds):
    """A valid object with a few values replaced or keys dropped, at random depths."""
    obj = copy.deepcopy(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(0, 3))):
        node = obj
        while isinstance(node, (dict, list)) and node:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = draw(st.sampled_from(keys))
            if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
                if isinstance(node, dict) and draw(st.booleans()):
                    del node[key]
                else:
                    node[key] = draw(json_values)
                break
            node = node[key]
    return obj


def _dump(obj) -> bytes:
    return json.dumps(obj).encode()


def payloads(seeds):
    """File contents: a valid object (drawn twice as often), a mutated one,
    random JSON, or bytes that may not even be text."""
    valid = st.sampled_from(seeds).map(_dump)
    return st.one_of(valid, valid, mutated(seeds).map(_dump), json_values.map(_dump), st.binary(max_size=24))


@st.composite
def cli_calls(draw):
    verb = draw(st.sampled_from([
        "eval", "factor", "color-omega", "witness-omega", "oscillation", "boundaries", "dist",
        "compose", "type-of", "color-devlin", "search-type", "realize-all",
    ]))
    small = st.integers(-2, 3)
    if verb in ("type-of", "color-devlin"):
        return verb, [draw(payloads(_POINT_LISTS))], []
    if verb in ("dist", "compose"):
        files = [draw(payloads(_SURJECTIONS)), draw(payloads(_SURJECTIONS))]
        cap = draw(st.none() | st.integers(-2, 12))
        return verb, files, [] if verb == "compose" or cap is None else [f"--cap={cap}"]
    if verb == "boundaries":
        return verb, [draw(payloads(_SURJECTIONS))], [f"--depth={draw(small)}"]
    if verb in ("search-type", "realize-all"):
        flags = [f"--depth-cap={draw(small)}", f"--budget={draw(st.sampled_from([-1, 0, 200, 2_000]))}"]
        if verb == "search-type":
            levels = draw(st.sampled_from(["0", "0,1", "1,0,2", "", "x", "-1", "0,0", "0,1,2,3,4,5,6,7"]))
            flags.append(f"--levels={levels}")
        else:
            flags.append(f"--k={draw(small)}")
        return verb, [draw(payloads(_SURJECTIONS))], flags
    if verb == "eval":
        points = [q(0, 1).to_json(), Point(2, (1, 0), 0).to_json(), max_point(2).to_json(), q(2, base=3).to_json()]
        point = draw(st.one_of(st.sampled_from(points), st.sampled_from(points), mutated(points), json_values))
        flags = [f"--point={json.dumps(point)}", f"--digits={draw(st.integers(-3, 30))}"]
        return verb, [draw(payloads(_SURJECTIONS))], flags
    if verb == "factor":
        files = [draw(payloads(_SURJECTIONS)), draw(payloads(_SURJECTIONS))]
        return verb, files, [f"--depth={draw(st.integers(-2, 3))}"]
    if verb in ("color-omega", "witness-omega"):
        cap = draw(st.none() | st.integers(-2, 12))
        flags = [] if cap is None else [f"--cap={cap}"]
        if verb == "witness-omega":
            flags.append(f"--target={draw(st.integers(-2, 9))}")
        return verb, [draw(payloads(_COPIES))], flags
    eps = draw(st.sampled_from([
        "0.3", "3/10", "0.6", "1", "0.1", "1e-20", "0", "2", "1/0", "x", "1e-10000000", "1e10000000",
    ]))
    budget = draw(st.sampled_from([2_000, 30_000]))
    return verb, [draw(payloads(_SPECS))], [f"--eps={eps}", "--seed=0", f"--budget={budget}"]


@settings(max_examples=600, deadline=None)
@given(cli_calls())
def test_cli_exit_contract_under_random_input(call):
    verb, contents, flags = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, data in enumerate(contents):
            path = Path(tmp) / f"in{i}.json"
            path.write_bytes(data)
            paths.append(str(path))
        with redirect_stdout(out), redirect_stderr(err):
            code = main([verb, *paths, *flags])
    assert_exit_contract(code, out.getvalue(), err.getvalue())


def assert_exit_contract(code, out, err):
    """0; 1 with a JSON object on stdout; or 2 with one line on stderr."""
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err == "" and isinstance(json.loads(out), dict)
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _no_checks(*args):
    raise AssertionError("a verify check ran")


@st.composite
def malformed_only(draw):
    """--only values that select no valid check set: blank, or holding at
    least one token that is no integer or names no check."""
    good = draw(st.lists(st.integers(1, 9).map(str), max_size=3))
    junk = st.text(alphabet="x-._/ ", min_size=1, max_size=3).filter(str.strip)
    bad = draw(st.lists(junk | st.sampled_from(["0", "10", "-1", "1.5", "99"]), min_size=1 if good else 0, max_size=3))
    blanks = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=2))
    return ",".join(draw(st.permutations(good + bad + blanks)))


@st.composite
def fileless_calls(draw):
    """tangent and types with random integers; verify with a malformed --only."""
    verb = draw(st.sampled_from(["tangent", "types", "verify"]))
    if verb == "verify":
        return [verb, "--seed", "42", f"--only={draw(malformed_only())}"]
    n = draw(st.integers() | st.integers(-2, 40))
    # the one slow valid value: 353,792 similarity types of six leaves
    assume(verb == "tangent" or n != 6)
    return [verb, str(n)]


@settings(max_examples=300, deadline=None)
@given(fileless_calls())
def test_cli_exit_contract_for_verbs_without_files(argv):
    out, err = io.StringIO(), io.StringIO()
    with patch("cantorsurj.verify.run_suite", _no_checks), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert_exit_contract(code, out.getvalue(), err.getvalue())
    if argv[0] == "verify":
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "42", "--only=--"],
        ["verify", "--seed=--"],
        ["oscillation", "spec.json", "--eps=--"],
        ["dist", "f.json", "g.json", "--cap=--"],
    ],
)
def test_option_given_as_double_dash_exits_2(argv):
    # argparse hands "--opt=--" over as an empty list, past the option's type
    out, err = io.StringIO(), io.StringIO()
    with patch("cantorsurj.verify.run_suite", _no_checks), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert_exit_contract(code, out.getvalue(), err.getvalue())
    assert code == 2 and "expected one value" in err.getvalue()


@pytest.mark.parametrize("only", [",", " ", "", " , ,"])
def test_verify_empty_only_exits_2_before_any_check(capsys, only):
    with patch("cantorsurj.verify.run_suite", _no_checks):
        got = run(capsys, "verify", "--seed", "42", "--only", only)
    assert got == (2, "", "error: --only: no checks selected\n")


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "cantorsurj", "tangent", "3"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0 and out.stdout == "16\n"
