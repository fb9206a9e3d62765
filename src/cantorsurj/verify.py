"""Seeded verification suite behind the `verify` verb.

Nine deterministic checks cover the package's correctness story end to
end: the enumeration oracles, the filtering bijection, monoid and metric
laws, factorization, color realization, branch-coloring surgery, and the
oscillation bound.  Reports carry counts and counterexample dumps only,
never wall times, so equal seeds give byte-identical output; each check
draws from its own child stream, so adding draws to one check never
shifts another's data.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from .experiments import (
    ColoringSpec,
    QCopy,
    build_witness,
    oscillation_search,
    random_qcopy,
    realize_all_colors,
)
from .intervals import Filtering, validate_level
from .points import iter_points
from .randgen import derive_rng, random_filtering, random_surjection
from .similarity import enumerate_types, tangent_number
from .surjections import (
    compose,
    distance,
    factor_through,
    from_filtering,
    identity,
    surjection_from_json,
    to_filtering,
)

__all__ = ["CheckResult", "SuiteReport", "run_suite", "replay", "CHECK_NAMES"]

MAX_DUMPS = 5  # per check; the detail line always carries the full count

TANGENT_FIRST_FIVE = (1, 2, 16, 272, 7936)


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    failures: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "failures": [json.loads(f) for f in self.failures],
        }


@dataclass(frozen=True, slots=True)
class SuiteReport:
    seed: str
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.results],
        }

    def render(self) -> str:
        lines = [f"cantorsurj verify seed={self.seed}"]
        for r in self.results:
            status = "ok  " if r.passed else "FAIL"
            lines.append(f"{status} {r.index} {r.name:<22} {r.detail}")
            for f in r.failures:
                lines.append(f"       {f}")
        npass = sum(1 for r in self.results if r.passed)
        lines.append(f"{npass}/{len(self.results)} passed, seed={self.seed}")
        return "\n".join(lines) + "\n"


# -- oracles for check 1 ----------------------------------------------------


def taylor_tangent(k_max: int) -> tuple[int, ...]:
    """Odd derivatives of tan at 0 from exact series division tan*cos = sin."""
    order = 2 * k_max
    fact = [1]
    for i in range(1, order + 1):
        fact.append(fact[-1] * i)
    sin = [Fraction((-1) ** (n // 2), fact[n]) if n % 2 else Fraction(0) for n in range(order + 1)]
    cos = [Fraction(0) if n % 2 else Fraction((-1) ** (n // 2), fact[n]) for n in range(order + 1)]
    tan = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        tan[n] = sin[n] - sum(tan[i] * cos[n - i] for i in range(n))
    out = []
    for k in range(1, k_max + 1):
        v = tan[2 * k - 1] * fact[2 * k - 1]
        if v.denominator != 1:
            raise ArithmeticError(f"non-integral derivative at k={k}: {v}")
        out.append(v.numerator)
    return tuple(out)


def count_updown(n: int) -> int:
    """Brute count of up-down permutations of n elements."""
    if n == 0:
        return 1
    return sum(
        1
        for p in permutations(range(n))
        if all(p[i] < p[i + 1] if i % 2 == 0 else p[i] > p[i + 1] for i in range(n - 1))
    )


# -- the nine checks --------------------------------------------------------
#
# A check is one row of CHECKS, read by both run_suite and replay.  The
# suite runs the row's predicate on each case drawn from the check's seeded
# stream, replay on the case rebuilt from a dump; predicate(case) returns a
# failure dump or None.  A case carries what its predicate and the detail
# line both read (a distance, a search report), made by one helper that the
# cases and the rebuild share.  Checks 3, 4 and 6 draw their cases lazily,
# so their detail lines read only the failures.

EPS = Fraction(3, 10)  # resolution of the oscillation searches in check 9


@dataclass(frozen=True, slots=True)
class Check:
    index: int
    name: str
    cases: Callable  # rng -> the cases, drawn in order from the check's stream
    predicate: Callable  # case -> a failure dump, or None when the case passes
    rebuild: Callable  # dump -> the case it was written from
    detail: Callable  # (cases, failure dumps) -> the report line


def _tangent_values() -> tuple[tuple[int, ...], ...]:
    return (
        tuple(tangent_number(k) for k in range(1, 6)),
        taylor_tangent(5),
        tuple(count_updown(2 * k - 1) for k in range(1, 6)),
    )


def _tangent_predicate(values) -> dict | None:
    table, taylor, brute = values
    if table == TANGENT_FIRST_FIVE == taylor == brute:
        return None
    return {"criterion": 1, "zigzag": table, "taylor": taylor, "brute": brute}


def _type_count_values() -> tuple[tuple[int, ...], tuple[int, ...]]:
    counts = tuple(len(enumerate_types(l)) for l in range(1, 5))
    return counts, tuple(tangent_number(l) for l in range(1, 5))


def _type_count_predicate(values) -> dict | None:
    counts, want = values
    return None if counts == want else {"criterion": 2, "counts": counts, "want": want}


def _roundtrip_cases(rng):
    return (
        (random_filtering(rng, rng.choice((2, 3)), rng.randint(0, 4)), range(1, 7))
        for _ in range(1000)
    )


def _roundtrip_predicate(case) -> dict | None:
    """The stored levels come back through to_filtering, and the first
    greedy level, made by the level pass, is what a fresh filtering's word
    walk gives: the maxima of the depth-(s+1) cells, bar the top point."""
    filt, depths = case  # the dump names the first failing depth
    f, b, s = from_filtering(filt), filt.base, filt.support
    for d in depths:
        got = to_filtering(f, d)
        ok = got.levels[:s] == filt.levels[:d]
        if ok and d == s + 1:
            words = list(product(range(b), repeat=d))
            walk = Filtering(b, filt.levels).cell_maxima(words)
            ok = got.levels[s] == tuple(walk[w] for w in words[:-1])
        if not ok:
            return {"criterion": 3, "filtering": filt.to_json(), "depth": d}
    return None


def _monoid_cases(rng):
    e = identity(2)  # shared, so its greedy extension is computed once
    return ((*(random_surjection(rng, 2, 3, 0.2) for _ in range(3)), e) for _ in range(200))


def _monoid_predicate(case) -> dict | None:
    f, g, h, e = case  # e: the base-2 identity
    lhs = compose(compose(f, g), h).fingerprint(8)
    rhs = compose(f, compose(g, h)).fingerprint(8)
    base_fp = g.fingerprint(8)
    left = compose(e, g).fingerprint(8)
    right = compose(g, e).fingerprint(8)
    if lhs == rhs and left == base_fp and right == base_fp:
        return None
    return {
        "criterion": 4,
        "f": f.to_json(),
        "g": g.to_json(),
        "h": h.to_json(),
        "assoc": lhs == rhs,
        "left_id": left == base_fp,
        "right_id": right == base_fp,
    }


SAMPLE_STEM_LIMIT = 10
SAMPLE_DIGITS = 10  # first image disagreement sits at depth <= max support < 10


def _sampled_sup_exponent(table_f, table_g) -> int | None:
    """Index of the earliest image-digit disagreement over the sample, or
    None when every sampled image agrees; sup rho = 2^-index."""
    best = None
    for u, v in zip(table_f, table_g):
        if u != v:
            idx = next(i for i, (x, y) in enumerate(zip(u, v)) if x != y)
            if best is None or idx < best:
                best = idx
                if best == 0:
                    break
    return best


def _sample_table(s, samples) -> tuple[tuple[int, ...], ...]:
    return tuple(e.digits for e in s.evaluate_all(samples, SAMPLE_DIGITS))


def _metric_case(f, g, table_f, table_g):
    return f, g, table_f, table_g, distance(f, g)


def _metric_cases(rng):
    samples = tuple(iter_points(2, SAMPLE_STEM_LIMIT))
    pool = [random_surjection(rng, 2, 4, 0.3) for _ in range(40)]
    tables = [_sample_table(s, samples) for s in pool]  # once per map, not per pair
    pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(500)]
    return [_metric_case(pool[i], pool[j], tables[i], tables[j]) for i, j in pairs]


def _metric_predicate(case) -> dict | None:
    f, g, table_f, table_g, d = case
    m = _sampled_sup_exponent(table_f, table_g)
    if (m is None) if d.kind == "zero" else (m == d.agree_depth):
        return None
    return {
        "criterion": 5,
        "f": f.to_json(),
        "g": g.to_json(),
        "distance": str(d),
        "sampled_exponent": m,
    }


def _metric_rebuild(dump: dict):
    f, g = _surjections(dump, "f", "g")
    samples = tuple(iter_points(2, SAMPLE_STEM_LIMIT))
    return _metric_case(f, g, _sample_table(f, samples), _sample_table(g, samples))


def _metric_detail(cases, bad) -> str:
    samples = len(cases[0][2])  # a table holds one image per sample point
    zeros = sum(case[-1].kind == "zero" for case in cases)
    return (
        f"500 pairs vs sup-oracle over {samples} points (stems <= {SAMPLE_STEM_LIMIT}): "
        f"{len(bad)} mismatches, {zeros} zero-distance pairs"
    )


def _factorization_cases(rng):
    bases = (3 if i % 7 == 0 else 2 for i in range(200))
    return (
        tuple(random_surjection(rng, b, 3, 0.25 if b == 2 else 0.0) for _ in range(2))
        for b in bases
    )


def _factorization_predicate(case) -> dict | None:
    """Factoring f o h through h gives back f, at depth 6 (and so, by
    nesting, at every shallower depth)."""
    f, h = case
    dump = {"criterion": 6, "f": f.to_json(), "h": h.to_json()}
    try:
        ff = factor_through(compose(f, h), h, 6)
    except ValueError as exc:
        return {**dump, "error": str(exc)}
    return None if ff.fingerprint(6) == f.fingerprint(6) else {**dump, "factor_ok": False}


def _realization_case(h):
    return h, realize_all_colors(h, 2, 20)


def _realization_cases(rng):
    inners = [identity(2)] + [
        from_filtering(random_filtering(rng, 2, rng.randint(0, 3))) for _ in range(20)
    ]
    return [_realization_case(h) for h in inners]


def _realization_predicate(case) -> dict | None:
    h, rep = case
    if rep.complete and all(r.verified for r in rep.realizations):
        return None
    missing = [r.color for r in rep.realizations if not r.verified]
    return {"criterion": 7, "h": h.to_json(), "missing": missing}


def _realization_detail(cases, bad) -> str:
    return (
        f"21 inner surjections, 16 colors each, cap 20: {len(bad)} incomplete"
        f" (combos={sum(rep.combos for _, rep in cases)},"
        f" deepest={max(rep.deepest_full for _, rep in cases)})"
    )


def _omega_cases(rng):
    copies = [QCopy.unrestricted(identity(2))] + [random_qcopy(rng) for _ in range(50)]
    return [(y, r) for y in copies for r in range(9)]


def _omega_predicate(case) -> dict | None:
    y, r = case
    try:
        out = build_witness(y, r)
        if out.color != r:
            raise RuntimeError(f"color {out.color}")
    except (RuntimeError, ValueError) as exc:
        return {"criterion": 8, "copy": y.to_json(), "target": r, "error": str(exc)}
    return None


def _omega_detail(cases, bad) -> str:
    done = len(cases) - len(bad)
    return f"{len(cases) // 9} copies x targets 0..8: {done} witnesses verified, {len(bad)} failures"


def _oscillation_case(spec):
    return spec, oscillation_search(spec, EPS)


def _oscillation_cases(rng):
    specs = [
        ColoringSpec(2, 2, 16, "relabeled_types", relabel=tuple(range(16))),
        ColoringSpec(2, 2, 64, "constant", constant=63),
    ]
    for _ in range(30):
        k_colors = rng.randint(1, 64)
        specs.append(
            ColoringSpec(
                2, 2, k_colors, "relabeled_types",
                relabel=tuple(rng.randrange(k_colors) for _ in range(16)),
            )
        )
    return [_oscillation_case(spec) for spec in specs]


def _oscillation_predicate(case) -> dict | None:
    spec, rep = case
    ok = rep.regime == "exact" and rep.guaranteed and len(rep.labels) <= 16
    if spec.kind == "relabeled_types":
        ok = ok and set(rep.labels) == set(spec.relabel)
    for w in rep.witnesses:
        # on the identity cube a valid tuple is the fingerprint of its own
        # composite (corollary (i)), so validity and the color certify it
        ok = ok and validate_level(rep.base, rep.k, w.points).ok and spec.color_of(w.points) == w.label
    return None if ok else {"criterion": 9, "spec": spec.to_json(), "labels": list(rep.labels)}


def _oscillation_detail(cases, bad) -> str:
    return (
        f"{len(cases)} colorings (K <= 64) through the type map: all |B| <= 16, "
        f"{sum(len(rep.witnesses) for _, rep in cases)} near-cube witnesses re-verified, "
        f"{len(bad)} failures"
    )


def _surjections(dump: dict, *keys: str) -> list:
    return [surjection_from_json(dump[k]) for k in keys]


CHECKS = (
    Check(1, "tangent-oracles", lambda rng: [_tangent_values()], _tangent_predicate,
          lambda dump: _tangent_values(),
          lambda cases, bad: "zigzag(1..5)={}; taylor={}; brute={}".format(*cases[0])),
    Check(2, "type-counts", lambda rng: [_type_count_values()], _type_count_predicate,
          lambda dump: _type_count_values(),
          lambda cases, bad: "|types(l)| for l=1..4 = {}, want {}".format(*cases[0])),
    Check(3, "bijection-roundtrip", _roundtrip_cases, _roundtrip_predicate,
          lambda dump: (Filtering.from_json(dump["filtering"]), (dump["depth"],)),
          lambda cases, bad: f"1000 filterings (b in 2,3, support <= 4) x depths 1..6: {len(bad)} failures"),
    Check(4, "monoid-laws", _monoid_cases, _monoid_predicate,
          lambda dump: (*_surjections(dump, "f", "g", "h"), identity(2)),
          lambda cases, bad: "200 triples, depth-8 fingerprints, associativity + identity laws: "
                             f"{len(bad)} failures"),
    Check(5, "metric-criterion", _metric_cases, _metric_predicate, _metric_rebuild, _metric_detail),
    Check(6, "factorization", _factorization_cases, _factorization_predicate,
          lambda dump: _surjections(dump, "f", "h"),
          lambda cases, bad: f"200 pairs, factor + tuple roundtrips at depth 6: {len(bad)} failures"),
    Check(7, "color-realization", _realization_cases, _realization_predicate,
          lambda dump: _realization_case(*_surjections(dump, "h")), _realization_detail),
    Check(8, "omega-witnesses", _omega_cases, _omega_predicate,
          lambda dump: (QCopy.from_json(dump["copy"]), dump["target"]), _omega_detail),
    Check(9, "oscillation-exact", _oscillation_cases, _oscillation_predicate,
          lambda dump: _oscillation_case(ColoringSpec.from_json(dump["spec"])), _oscillation_detail),
)

CHECK_NAMES = {check.index: check.name for check in CHECKS}


def run_suite(seed: int | str, only: set[int] | None = None) -> SuiteReport:
    results = []
    for check in CHECKS:
        if only is not None and check.index not in only:
            continue
        rng = derive_rng(seed, f"c{check.index}")
        try:
            cases = check.cases(rng)
            bad = [dump for dump in map(check.predicate, cases) if dump is not None]
            ok, detail = not bad, check.detail(cases, bad)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail, bad = False, f"crashed: {type(exc).__name__}: {exc}", []
        results.append(
            CheckResult(check.index, check.name, ok, detail, tuple(_dump(d) for d in bad[:MAX_DUMPS]))
        )
    return SuiteReport(str(seed), tuple(results))


def replay(dump: dict) -> bool:
    """Re-run the one assertion behind a counterexample dump: rebuild its
    case and run the predicate of the check the dump names.  Returns True
    when the assertion passes now, so any genuine dump replays to False."""
    c = dump["criterion"]
    for check in CHECKS:
        if check.index == c:
            return check.predicate(check.rebuild(dump)) is None
    raise ValueError(f"unknown criterion index {c!r}")
