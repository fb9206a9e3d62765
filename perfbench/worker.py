"""One benchmark process: set up one chunk of one workload, run its items
once, check them, and print a JSON report as the last line of stdout.

Started by ``run.py`` in a fresh interpreter per chunk, from the root of a
checkout with ``src`` on ``PYTHONPATH``.  ``--verify-checks SEED`` instead
times ``run_suite(SEED, only={i})`` for each of the nine verify checks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback

REFERENCE_SEED = 42
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _corrupt(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def load_reference(workload: str, seed: int, corrupt: bool) -> dict[str, str]:
    if seed != REFERENCE_SEED:
        return {}
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)["items"]
    if corrupt:
        first = sorted(ref, key=lambda k: tuple(int(x) for x in k.split(":")))[0]
        ref[first] = _corrupt(ref[first])
    return ref


def judge(check, want: str | None) -> tuple[str | None, str | None]:
    """Run an item's check; return (error or None, answer digest or None).
    The answer is hashed at every seed, so every seed does the same work and
    peak RSS does not depend on whether a reference exists."""
    import workloads as wl

    try:
        value = wl.digest(check())
    except wl.CheckFailed as exc:
        return f"check failed: {exc}", None
    except Exception as exc:  # a check that crashes fails the item
        return f"check raised {type(exc).__name__}: {exc}", None
    if want is not None and want != value:
        return f"answer {value} differs from the reference answer {want}", value
    return None, value


def run_chunk(args) -> dict:
    import calibrate
    import cantorsurj

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.resume()
    import workloads as wl

    rng = wl.chunk_rng(args.seed, args.workload, args.chunk)
    items = wl.MAKERS[args.workload](rng)
    wl.warm_process_caches()
    reference = {} if args.record else load_reference(args.workload, args.seed, args.corrupt_reference)
    gc.collect()

    times: list[float] = []
    calib: list[float] = []
    kinds: list[str] = []
    failures: list[dict] = []
    digests: list[str] = []
    compared = 0
    item_names: dict[str, int] = {}
    first_item = time.monotonic()
    if tracer is not None:
        tracer.pause()
    for i, (kind, *inputs) in enumerate(items):
        calib.append(calibrate.kernel())
        if tracer is not None:
            tracer.resume()
            tracer.set_item(i)
            nid = item_names.setdefault(kind, tracer.name_id(f"item.{kind}"))
            span = tracer.open(nid)
        t0 = time.perf_counter()
        try:
            _, check = wl.RUNNERS[kind](*inputs)
            error = None
        except Exception as exc:  # a raising item is a failed item
            check, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(span)
            tracer.pause()
        times.append(t1 - t0)
        kinds.append(kind)
        value = None
        if error is None:
            want = reference.get(f"{args.chunk}:{i}")
            compared += want is not None
            error, value = judge(check, want)
        digests.append(value or "")
        if error is not None:
            failures.append({"chunk": args.chunk, "item": i, "kind": kind, "error": error})
    calib.append(calibrate.kernel())

    report = {
        "module": os.path.abspath(cantorsurj.__file__),
        "first_item_monotonic": first_item,
        "times": times,
        "calib": calib,
        "kinds": kinds,
        "failures": failures,
        "reference_compared": compared,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.record:
        report["digests"] = digests
    if tracer is not None:
        report["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    return report


def run_verify_checks(seed: int) -> dict:
    from cantorsurj.verify import CHECK_NAMES, run_suite

    checks = {}
    for idx in sorted(CHECK_NAMES):
        t0 = time.perf_counter()
        rep = run_suite(seed, only={idx})
        checks[str(idx)] = {"seconds": time.perf_counter() - t0, "passed": rep.passed,
                            "detail": rep.results[0].detail}
    return {"seed": seed, "checks": checks}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--chunk", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="write the traced spans here (gzip JSON lines)")
    ap.add_argument("--corrupt-reference", action="store_true")
    ap.add_argument("--record", action="store_true", help="also report every item's answer digest")
    ap.add_argument("--verify-checks", type=int, metavar="SEED")
    args = ap.parse_args()
    try:
        if args.verify_checks is not None:
            out = run_verify_checks(args.verify_checks)
        else:
            out = run_chunk(args)
    except Exception:
        traceback.print_exc()
        return 2
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
