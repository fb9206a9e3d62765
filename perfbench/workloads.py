"""Seeded inputs, items and correctness checks of the three workloads.

An item is one user-level question answered from JSON inputs, what one CLI
verb or one verify case does.  Each item decodes fresh objects from its JSON
strings, so per-object memo tables start cold, as they do for every CLI
call.  Inputs come from the library's own generators (``randgen`` and
``random_qcopy``) on a stream derived from the workload seed and the chunk
index; the library only ever sees the generated inputs.

A chunk is the item list one worker process runs.  Its mix of item kinds
and input sizes is fixed and only the random content varies with the seed,
so a run's totals move little from seed to seed.

Every item returns ``(answer, check)``; only producing the answer is timed.
``check`` runs afterwards, raises ``CheckFailed`` when the answer breaks the
property the paper guarantees, and otherwise returns the answer's value,
which is hashed and, at the reference seed, compared with the recorded
reference.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import cantorsurj.experiments as ex
import cantorsurj.intervals as iv
import cantorsurj.randgen as rg
import cantorsurj.similarity as sm
import cantorsurj.surjections as sj

# extend: rounds per chunk of these (base, support) filterings: base 2 at
# every support (about 3 ms an item), base 3 at support 0 and 1 (about 27 ms)
# and base 3 with two to four stored levels (25 to 110 ms, 70 % of items).
# The median item then sits inside the deep base-3 group, not at the edge
# between two groups; the support-0 group, the same input every time, moved
# by up to 60 % with the machine's speed, against about 20 % for the others
EXTEND_ROUNDS = 3
EXTEND_ROUND = (
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1),
    *((3, 2),) * 6, *((3, 3),) * 6, *((3, 4),) * 5,
)
EXTEND_DEPTH = 6

# metric: per chunk one deep-agreeing pair, 10 factor round trips and 40
# random pairs, drawn from a pool of POOL_SIZE surjections of which 30 %
# are chains; the mixes fix how many operands of each kind (F filtering,
# C chain) an item gets, close to what random draws from the pool give
POOL_SIZE = 40
CHAINS_IN_POOL = 12
PAIR_MIX = (("FF", 20), ("FC", 8), ("CF", 8), ("CC", 4))
FACTOR_MIX = (("FF", 5), ("FC", 2), ("CF", 2), ("CC", 1))
FACTOR_DEPTH = 6
PAIR_DIFFER_BY = 2
DEEP_SUPPORTS = (1, 1)
GUARD = 12

# colors: rounds per chunk; each round realizes all colors over the
# identity and three random inner maps, scans 4-leaf types once, builds
# witnesses 0..8 on one random copy and runs two oscillation searches
COLORS_ROUNDS = 5
REALIZE_INNERS = 3
WITNESS_TARGETS = 9
OSCILLATION_SPECS = 2
SCAN_LEAVES = 4
EPS = Fraction(3, 10)


class CheckFailed(Exception):
    pass


def digest(value) -> str:
    """Short stable hash of a JSON-able answer value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _load_surjection(text: str):
    return sj.surjection_from_json(json.loads(text))


def _levels_json(levels) -> list:
    return [[p.to_json() for p in level] for level in levels]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def chunk_rng(seed: int, workload: str, chunk: int) -> random.Random:
    return rg.derive_rng(seed, f"perfbench/{workload}/{chunk}")


# -- extend -----------------------------------------------------------------


def make_extend(rng: random.Random) -> list[tuple]:
    items = []
    for _ in range(EXTEND_ROUNDS):
        rnd = [
            ("extend", _dumps(sj.from_filtering(rg.random_filtering(rng, base, support)).to_json()))
            for base, support in EXTEND_ROUND
        ]
        rng.shuffle(rnd)
        items.extend(rnd)
    return items


def run_extend(text: str):
    f = _load_surjection(text)
    got = tuple(sj.to_filtering(f, d) for d in range(1, EXTEND_DEPTH + 1))

    def check():
        # the deepest result is validated in full; every shallower one must
        # be its prefix, and the stored levels must come through unchanged
        deepest = got[-1]
        report = iv.validate_filtering(deepest)
        _require(report.ok, f"to_filtering(f, {EXTEND_DEPTH}) invalid: {report.message}")
        stored = json.loads(text)["boundaries"]
        _require(_levels_json(deepest.levels[: len(stored)]) == stored, "stored levels changed")
        for d, filt in enumerate(got, start=1):
            _require(filt.base == deepest.base and filt.levels == deepest.levels[:d],
                     f"to_filtering(f, {d}) is not the depth-{d} prefix of depth {EXTEND_DEPTH}")
        return _levels_json(deepest.levels)

    return got, check


# -- metric -----------------------------------------------------------------


def make_metric(rng: random.Random) -> list[tuple]:
    # random_surjection(rng, 2, 4, 0.3) with the chain share made exact
    pool = [
        rg.random_surjection(rng, 2, 4, 1.0 if i < CHAINS_IN_POOL else 0.0)
        for i in range(POOL_SIZE)
    ]
    texts = [_dumps(s.to_json()) for s in pool]

    def pick(kinds: str) -> list[int]:
        # one pool member per letter: F a filtering map, C a chain
        return [
            rng.randrange(CHAINS_IN_POOL) if k == "C" else rng.randrange(CHAINS_IN_POOL, POOL_SIZE)
            for k in kinds
        ]

    items: list[tuple] = []
    for kinds, count in PAIR_MIX:
        for _ in range(count):
            # random pairs that differ within PAIR_DIFFER_BY levels; pairs
            # that agree deeper are the deep kind's job, in fixed number
            i, j = pick(kinds)
            while pool[i].fingerprint(PAIR_DIFFER_BY) == pool[j].fingerprint(PAIR_DIFFER_BY):
                i, j = pick(kinds)
            items.append(("pair", texts[i], texts[j]))
    for kinds, count in FACTOR_MIX:
        for _ in range(count):
            i, j = pick(kinds)
            items.append(("factor", texts[i], texts[j]))
    # the deep pair: f o h kept as a chain, against its truncation to the
    # joint support; both sides agree as far as the guard reaches
    s_f, s_h = DEEP_SUPPORTS
    f = sj.from_filtering(rg.random_filtering(rng, 2, s_f))
    h = sj.from_filtering(rg.random_filtering(rng, 2, s_h))
    chain = {"b": 2, "kind": "chain", "outer": f.to_json(), "inner": h.to_json()}
    flat = sj.truncate(sj.compose(f, h), s_f + s_h)
    items.append(("deep", _dumps(chain), _dumps(flat.to_json())))
    rng.shuffle(items)
    return items


def _distance_item(text_f: str, text_g: str, deep: bool):
    f, g = _load_surjection(text_f), _load_surjection(text_g)
    d = sj.distance(f, g, guard=GUARD)

    def check():
        value = d.dyadic()
        if deep:
            _require(value.is_zero, f"deep-agreeing pair came out {value}")
        elif not value.is_zero:
            m = d.agree_depth
            _require(m >= 0, f"negative agreement depth {m}")
            if m >= 1:
                _require(f.fingerprint(m) == g.fingerprint(m), f"fingerprints differ at depth {m}")
            _require(f.fingerprint(m + 1) != g.fingerprint(m + 1), f"fingerprints agree at depth {m + 1}")
        return str(value)

    return d, check


def run_pair(text_f: str, text_g: str):
    return _distance_item(text_f, text_g, deep=False)


def run_deep(text_chain: str, text_flat: str):
    return _distance_item(text_chain, text_flat, deep=True)


def run_factor(text_f: str, text_h: str):
    f, h = _load_surjection(text_f), _load_surjection(text_h)
    g = sj.compose(f, h)
    ff = sj.factor_through(g, h, FACTOR_DEPTH)
    t = sj.BoundaryTuple(g.base, FACTOR_DEPTH, g.fingerprint(FACTOR_DEPTH))
    f2 = sj.tuple_to_factor(h, t)

    def check():
        fp = ff.fingerprint(FACTOR_DEPTH)
        _require(fp == f.fingerprint(FACTOR_DEPTH), "factor_through did not recover the outer factor")
        _require(sj.compose(f2, h).fingerprint(FACTOR_DEPTH) == t.entries,
                 "tuple_to_factor does not reproduce the fingerprint")
        return [[p.to_json() for p in fp], [p.to_json() for p in f2.fingerprint(FACTOR_DEPTH)]]

    return (ff, f2), check


# -- colors -----------------------------------------------------------------


def make_colors(rng: random.Random) -> list[tuple]:
    identity = _dumps(sj.identity(2).to_json())
    items: list[tuple] = []
    for _ in range(COLORS_ROUNDS):
        rnd: list[tuple] = [("realize", identity)]
        for _ in range(REALIZE_INNERS):
            h = sj.from_filtering(rg.random_filtering(rng, 2, rng.randint(0, 3)))
            rnd.append(("realize", _dumps(h.to_json())))
        h = sj.from_filtering(rg.random_filtering(rng, 2, rng.randint(0, 3)))
        rnd.append(("scan", _dumps(h.to_json())))
        copy = _dumps(ex.random_qcopy(rng).to_json())
        for r in range(WITNESS_TARGETS):
            rnd.append(("witness", copy, r))
        for _ in range(OSCILLATION_SPECS):
            k_colors = rng.randint(1, 64)
            spec = ex.ColoringSpec(
                2, 2, k_colors, "relabeled_types",
                relabel=tuple(rng.randrange(k_colors) for _ in range(16)),
            )
            rnd.append(("oscillation", _dumps(spec.to_json())))
        rng.shuffle(rnd)
        items.extend(rnd)
    return items


def run_realize(text_h: str):
    rep = ex.realize_all_colors(_load_surjection(text_h), 2, 20)

    def check():
        _require(rep.colors == 16 and len(rep.realizations) == 16, f"{rep.colors} colors, want 16")
        missing = [r.color for r in rep.realizations if not r.verified]
        _require(rep.complete and not missing, f"colors not realized and verified: {missing}")
        return rep.to_json()

    return rep, check


def run_scan(text_h: str):
    out = sm.scan_types(_load_surjection(text_h), SCAN_LEAVES)

    def check():
        for r, w in out.witnesses.items():
            got = sm.canonical_coloring(w.points, SCAN_LEAVES)
            _require(got == r, f"scan witness for type {r} has color {got}")
        return {
            "combos": out.combos,
            "deepest_full": out.deepest_full,
            "complete": out.complete,
            "witnesses": [
                [r, out.witnesses[r].depth, [p.to_json() for p in out.witnesses[r].points]]
                for r in sorted(out.witnesses)
            ],
        }

    return out, check


def run_witness(text_copy: str, target: int):
    out = ex.build_witness(ex.QCopy.from_json(json.loads(text_copy)), target)

    def check():
        _require(out.color == target, f"witness color {out.color}, target {target}")
        return out.to_json()

    return out, check


def run_oscillation(text_spec: str):
    spec = ex.ColoringSpec.from_json(json.loads(text_spec))
    rep = ex.oscillation_search(spec, EPS)

    def check():
        _require(rep.regime == "exact" and rep.guaranteed, f"regime {rep.regime}")
        _require(set(rep.labels) == set(spec.relabel),
                 f"labels {list(rep.labels)} differ from the relabel set {sorted(set(spec.relabel))}")
        return rep.to_json()

    return rep, check


MAKERS = {"extend": make_extend, "metric": make_metric, "colors": make_colors}

RUNNERS = {
    "extend": run_extend,
    "pair": run_pair,
    "deep": run_deep,
    "factor": run_factor,
    "realize": run_realize,
    "scan": run_scan,
    "witness": run_witness,
    "oscillation": run_oscillation,
}


def warm_process_caches() -> None:
    """Fill the process-wide lru_caches the colors items read, so no item
    pays for them and set-up time shows their cost."""
    type_index = getattr(sm, "_type_index", sm.enumerate_types)
    for leaves in range(1, SCAN_LEAVES + 1):
        sm.enumerate_types(leaves)
        type_index(leaves)
