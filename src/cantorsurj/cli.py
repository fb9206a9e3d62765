"""Command line entry point.

One executable, subcommand per task, JSON as the only structured wire
format.  Structured inputs come from files ("-" reads stdin); small values
ride on flags.  Exit status: 0 on success, 1 when an assertion or
verification fails (a counterexample dump goes to stdout), 2 on malformed
input, on JSON nested too deeply to parse and when memory runs out (a
one-line note goes to stderr).  Capped operations default to a depth cap of
64; dist --cap, search-type --depth-cap and realize-all --depth-cap set it
per call.  The branch coloring is exact: color-omega and witness-omega check a
--cap and then ignore it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice

from .caps import depth_cap
from .experiments import (
    ColoringSpec,
    QCopy,
    build_witness,
    omega_coloring,
    oscillation_search,
    realize_all_colors,
)
from .points import Point, points_from_json
from .similarity import (
    DEFAULT_SCAN_BUDGET,
    MAX_TANGENT_INDEX,
    MAX_TYPE_LEAVES,
    TreeType,
    diagonal_levels,
    enumerate_types,
    scan_types,
    tangent_number,
    type_rank,
)
from .surjections import (
    FactorizationError,
    compose,
    distance,
    factor_through,
    surjection_from_json,
)

__all__ = ["main"]

def _reason(exc: Exception) -> str:
    """What a decoder error says about the input; a KeyError names the key."""
    return f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _decode(path: str, decoder):
    """Read a JSON file and decode it; any decoder error is bad input."""
    obj = _read_json(path)
    try:
        return decoder(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: {_reason(exc)}") from exc


def _surjection(path: str):
    return _decode(path, surjection_from_json)


def _point_list(obj) -> tuple[Point, ...]:
    if isinstance(obj, dict):
        obj = obj.get("points", obj)
    if not isinstance(obj, list):
        raise ValueError("expected a JSON list of points")
    return points_from_json(obj)


def _points(path: str) -> tuple[Point, ...]:
    return _decode(path, _point_list)


def _point_arg(text: str) -> Point:
    try:
        return Point.from_json(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"--point: {_reason(exc)}") from exc


def _emit(obj) -> None:
    # streamed in batches of chunks: a large answer is never one string
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    for batch in iter(lambda: list(islice(chunks, 1 << 14)), []):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _levels_arg(text: str) -> TreeType:
    try:
        t = TreeType(tuple(int(t) for t in text.split(",") if t.strip() != ""))
    except ValueError as exc:
        raise ValueError(f"--levels: {exc}") from exc
    if t.leaf_count > MAX_TYPE_LEAVES:
        raise ValueError(f"--levels: {t.leaf_count} leaves; types are enumerated up to {MAX_TYPE_LEAVES}")
    return t


# -- handlers ----------------------------------------------------------------


def _cmd_tangent(args) -> int:
    print(tangent_number(args.k))
    return 0


def _cmd_types(args) -> int:
    types = enumerate_types(args.l)
    _emit({"l": args.l, "count": len(types), "types": [list(t.levels) for t in types]})
    return 0


def _colored_points(path: str) -> tuple[int, tuple[int, ...] | None, int]:
    """Length, type levels (None unless strongly diagonal) and color, from one classification."""
    pts = _points(path)
    if len(pts) > MAX_TANGENT_INDEX:
        raise ValueError(f"{path}: {len(pts)} points; types are ranked up to {MAX_TANGENT_INDEX} leaves")
    try:
        levels = diagonal_levels(pts)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return len(pts), levels, 0 if levels is None else type_rank(levels)


def _cmd_type_of(args) -> int:
    l, levels, color = _colored_points(args.points)
    _emit({"l": l, "diagonal": levels is not None, "color": color, "levels": levels})
    return 0


def _cmd_search_type(args) -> int:
    t = _levels_arg(args.levels)
    h = _surjection(args.surjection)
    r = type_rank(t.levels)
    out = scan_types(h, t.leaf_count, args.depth_cap, args.budget, frozenset({r}))
    w = out.witnesses.get(r)
    _emit(
        {
            "levels": list(t.levels),
            "found": None if w is None else [p.to_json() for p in w.points],
            "depth": out.deepest_full if w is None else w.depth,
            "combos": out.combos,
            "exhausted": w is None,
        }
    )
    return 0


def _cmd_eval(args) -> int:
    f = _surjection(args.surjection)
    x = _point_arg(args.point)
    ev = f.evaluate(x, args.digits)
    _emit(
        {
            "digits": list(ev.digits),
            "exact": None if ev.exact is None else ev.exact.to_json(),
        }
    )
    return 0


def _cmd_compose(args) -> int:
    outer = _surjection(args.outer)
    inner = _surjection(args.inner)
    _emit(compose(outer, inner).to_json())
    return 0


def _cmd_dist(args) -> int:
    f = _surjection(args.f)
    g = _surjection(args.g)
    print(str(distance(f, g, args.cap)))
    return 0


def _cmd_factor(args) -> int:
    g = _surjection(args.composite)
    h = _surjection(args.inner)
    if args.depth < 1:
        raise ValueError("depth must be >= 1")
    try:
        f = factor_through(g, h, args.depth)
    except FactorizationError as exc:
        _emit({"error": str(exc), "witness": None, "depth": exc.depth})
        return 1
    _emit(f.to_json())
    return 0


def _cmd_boundaries(args) -> int:
    f = _surjection(args.surjection)
    if args.depth < 1:
        raise ValueError("depth must be >= 1")
    _emit(f.boundary_tuple(args.depth).to_json())
    return 0


def _cmd_color_devlin(args) -> int:
    print(_colored_points(args.points)[2])
    return 0


def _cmd_color_omega(args) -> int:
    y = _decode(args.copy, QCopy.from_json)
    depth_cap(args.cap)  # checked, then ignored: the branch coloring is exact
    print(omega_coloring(y))
    return 0


def _emit_report(compute, **context) -> int:
    """Print compute()'s report with exit 0, or its RuntimeError as a JSON
    dump with exit 1."""
    try:
        rep = compute()
    except RuntimeError as exc:
        _emit({"error": str(exc), **context})
        return 1
    _emit(rep.to_json())
    return 0


def _cmd_witness_omega(args) -> int:
    y = _decode(args.copy, QCopy.from_json)
    depth_cap(args.cap)  # checked, then ignored: the branch coloring is exact
    return _emit_report(lambda: build_witness(y, args.target), target=args.target)


def _cmd_realize_all(args) -> int:
    h = _surjection(args.surjection)
    if args.k < 1:
        raise ValueError("k must be >= 1")
    return _emit_report(lambda: realize_all_colors(h, args.k, args.depth_cap, args.budget))


def _eps(text: str) -> Fraction:
    """--eps as an exact Fraction.  Fraction builds 10^|e| for a decimal
    exponent e however large, and a message cannot print an integer past
    Python's default 4300 digits; the numerator and denominator have at
    most |e| + len(text) digits, so that sum is bounded before parsing."""
    magnitude = text.lower().partition("e")[2].strip().lstrip("+-").lstrip("0")
    if magnitude.isdecimal() and (len(magnitude) > 4 or int(magnitude) + len(text) > 4300):
        raise ValueError("--eps: decimal exponent too large: |exponent| + length must be at most 4300")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"--eps: {exc}") from exc


def _cmd_oscillation(args) -> int:
    spec = _decode(args.coloring, ColoringSpec.from_json)
    eps = _eps(args.eps)
    return _emit_report(lambda: oscillation_search(spec, eps, args.budget))


def _cmd_verify(args) -> int:
    from .verify import CHECK_NAMES, run_suite

    only = None
    if args.only is not None:
        try:
            only = {int(t) for t in args.only.split(",") if t.strip() != ""}
        except ValueError as exc:
            raise ValueError(f"--only: {exc}") from exc
        if not only:
            raise ValueError("--only: no checks selected")
        unknown = only - CHECK_NAMES.keys()
        if unknown:
            raise ValueError(f"--only: no such checks {sorted(unknown)}")
    rep = run_suite(args.seed, only)
    if args.json:
        _emit(rep.to_json())
    else:
        sys.stdout.write(rep.render())
    return 0 if rep.passed else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cantorsurj",
        description="Exact combinatorics of monotone surjections of the Cantor space.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def cap_flag(sp, note="depth cap override"):
        sp.add_argument("--cap", type=int, default=None, help=note)

    sp = sub.add_parser("tangent", help="k-th odd tangent number")
    sp.add_argument("k", type=int)
    sp.set_defaults(fn=_cmd_tangent)

    sp = sub.add_parser("types", help="enumerate similarity types with l leaves")
    sp.add_argument("l", type=int)
    sp.set_defaults(fn=_cmd_types)

    sp = sub.add_parser("type-of", help="similarity type and color of a point tuple")
    sp.add_argument("points", help="JSON file: list of points")
    sp.set_defaults(fn=_cmd_type_of)

    sp = sub.add_parser("search-type", help="first max-set tuple realizing a type")
    sp.add_argument("surjection", help="JSON file")
    sp.add_argument("--levels", required=True, help="comma-separated level ranks")
    sp.add_argument("--depth-cap", type=int, default=None)
    sp.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    sp.set_defaults(fn=_cmd_search_type)

    sp = sub.add_parser("eval", help="image digits of a point")
    sp.add_argument("surjection", help="JSON file")
    sp.add_argument("--point", required=True, help="inline JSON point")
    sp.add_argument("--digits", type=int, default=24)
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("compose", help="compose two surjections (outer first)")
    sp.add_argument("outer", help="JSON file")
    sp.add_argument("inner", help="JSON file")
    sp.set_defaults(fn=_cmd_compose)

    sp = sub.add_parser("dist", help="exact sup-metric distance token")
    sp.add_argument("f", help="JSON file")
    sp.add_argument("g", help="JSON file")
    cap_flag(sp)
    sp.set_defaults(fn=_cmd_dist)

    sp = sub.add_parser("factor", help="solve composite = f o inner for f")
    sp.add_argument("composite", help="JSON file")
    sp.add_argument("inner", help="JSON file")
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(fn=_cmd_factor)

    sp = sub.add_parser("boundaries", help="depth-k fingerprint of a surjection")
    sp.add_argument("surjection", help="JSON file")
    sp.add_argument("--depth", type=int, required=True)
    sp.set_defaults(fn=_cmd_boundaries)

    sp = sub.add_parser("color-devlin", help="canonical type color of a point tuple")
    sp.add_argument("points", help="JSON file: list of points")
    sp.set_defaults(fn=_cmd_color_devlin)

    sp = sub.add_parser("color-omega", help="branch-comparison color of a copy")
    sp.add_argument("copy", help="JSON file")
    cap_flag(sp, "checked, then ignored; the coloring is exact")
    sp.set_defaults(fn=_cmd_color_omega)

    sp = sub.add_parser("witness-omega", help="cut a copy down to a target color")
    sp.add_argument("copy", help="JSON file")
    sp.add_argument("--target", type=int, required=True)
    cap_flag(sp, "checked, then ignored; the witness is exact")
    sp.set_defaults(fn=_cmd_witness_omega)

    sp = sub.add_parser("realize-all", help="realize every color over an inner surjection")
    sp.add_argument("surjection", help="JSON file")
    sp.add_argument("--k", type=int, required=True, help="fingerprint depth")
    sp.add_argument("--depth-cap", type=int, default=None)
    sp.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    sp.set_defaults(fn=_cmd_realize_all)

    sp = sub.add_parser("oscillation", help="shrink a coloring's range on a cube")
    sp.add_argument("coloring", help="JSON file: coloring spec")
    sp.add_argument("--eps", required=True, help="resolution, e.g. 0.3 or 3/10")
    sp.add_argument("--budget", type=int, default=DEFAULT_SCAN_BUDGET)
    sp.add_argument("--seed", default=None, help="ignored; the search is exact and unseeded")
    sp.set_defaults(fn=_cmd_oscillation)

    sp = sub.add_parser("verify", help="run the seeded verification suite")
    sp.add_argument("--seed", required=True)
    sp.add_argument("--only", default=None, help="comma-separated check indices")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=_cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--opt=--" as an empty list, skipping the option's type
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{name.replace('_', '-')}: expected one value", file=sys.stderr)
            return 2
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:  # bad input: the verbs' and the library's refusals
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a safety net: decoding and evaluation are loops, but
        # ChainSurjection.to_json recurses, bounded by the parser's depth + 1
        print("error: input nested too deeply to evaluate", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # a downstream pager closed early; silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
