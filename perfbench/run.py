"""Layered benchmark of cantorsurj.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload extend|metric|colors --seed N \
        --seconds S --trace 0|1

The benchmark is single-process and closed-loop: one caller runs one item
at a time.  A run executes chunks of items, each chunk once, in a fresh
``worker.py`` interpreter (so no process-wide cache turns a repeat into a
free pass).  With ``--trace 0`` it runs round(seconds / CHUNK_SECONDS)
chunks, about ``--seconds`` of item time at the commit the benchmark was
written on, and reports the end-to-end metrics.  With ``--trace 1`` it runs
TRACE_CHUNKS chunks twice, untraced then traced, and reports the per-layer
metrics (traced counts repeat exactly for a given seed), the tracing
overhead and the nine verify check times.  Item and set-up times are
normalized to a reference machine speed by a calibration kernel the worker
times around every item (``calibrate.py``); the measured values stay in the
record.  The last line of stdout is the result object; the line before it
is the full record (environment, percentile details, failures).

Exit status: 0 when every item passed its check, 1 when some item failed,
2 when the benchmark could not run (for instance, no ``src/cantorsurj``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("extend", "metric", "colors")
TRACE_CHUNKS = 2
# normalized item time of one chunk at the reference commit; a run executes
# round(seconds / CHUNK_SECONDS) chunks, so its item list is fixed by the
# seed and --seconds alone
CHUNK_SECONDS = {"extend": 2.4, "metric": 1.5, "colors": 1.85}
VERIFY_SEED = 42
WALL_BUDGET_S = 140.0  # an untraced run that takes longer is abandoned
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    """Environment of every worker: the checkout's sources first on the
    path, a fixed hash seed, and no depth-cap override."""
    env = dict(os.environ)
    env.pop("RAMSEY_DEPTH_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_worker(cmd_args: list[str], env: dict[str, str], timeout: float) -> tuple[float, dict]:
    """Start one worker, wait for it, and return (start time, report)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *cmd_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(cmd_args)} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd_args)} exited {proc.returncode}: {err.strip()[-2000:]}")
    return start, json.loads(out.strip().splitlines()[-1])


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit_of(root: str) -> str:
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown (no git metadata)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(root: str, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_of(root),
        "source_sha256": source_digest(root),
        "PYTHONHASHSEED": "0",
        "RAMSEY_DEPTH_CAP": "removed",
    }


def chunk_args(args, chunk: int, trace: int) -> list[str]:
    out = ["--workload", args.workload, "--seed", str(args.seed), "--chunk", str(chunk),
           "--trace", str(trace)]
    if args.corrupt_reference:
        out.append("--corrupt-reference")
    return out


def chunk_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / CHUNK_SECONDS[workload]))


def tail(times_ms: list[float]) -> tuple[float, float, int]:
    """Item time at the highest percentile with at least 10 samples beyond
    it, with that percentile and the number of samples beyond."""
    xs = sorted(times_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def speed_factors(calib: list[float]) -> list[float]:
    """Speed factor of each item from the calibration kernel times a worker
    took before every item and after the last: the mean of the two kernel
    times around the item over calibrate.REFERENCE_S (above 1 when the
    machine is slower than the reference).  The host flips between its
    speed states within a fraction of a second, so only the kernels next to
    an item describe it."""
    return [(a + b) / (2.0 * calibrate.REFERENCE_S) for a, b in zip(calib, calib[1:])]


class Totals:
    """What the workers of one run reported, pooled.  Item and set-up
    times are normalized to the reference machine speed (calibrate.py);
    the measured ones are kept as well."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.factors: list[float] = []
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.rss_kib: list[int] = []
        self.kinds: list[str] = []
        self.failures: list[dict] = []
        self.compared = 0
        self.chunk_items_per_s: list[float] = []

    def add(self, start: float, rep: dict) -> None:
        factors = speed_factors(rep["calib"])
        times = [t / f for t, f in zip(rep["times"], factors)]
        self.times.extend(times)
        self.raw_times.extend(rep["times"])
        self.factors.extend(factors)
        self.kinds.extend(rep["kinds"])
        setup = rep["first_item_monotonic"] - start
        self.raw_setups.append(setup)
        # set-up is charged at the speed of the first items
        self.setups.append(setup / factors[0])
        self.rss_kib.append(rep["maxrss_kib"])
        self.failures.extend(rep["failures"])
        self.compared += rep["reference_compared"]
        self.chunk_items_per_s.append(len(times) / sum(times))

    @property
    def attempted(self) -> int:
        return len(self.times)


def check_module(root: str, rep: dict) -> None:
    want = os.path.join(root, "src")
    if not rep["module"].startswith(want + os.sep):
        raise BenchError(f"worker imported cantorsurj from {rep['module']}, not from {want}")


def run_untraced(root: str, args, env: dict) -> dict:
    totals = Totals()
    t_begin = time.monotonic()
    chunks = chunk_count(args.workload, args.seconds)
    for chunk in range(chunks):
        start, rep = run_worker(chunk_args(args, chunk, 0), env, CHILD_TIMEOUT_S)
        check_module(root, rep)
        totals.add(start, rep)
        spent = time.monotonic() - t_begin
        if spent > WALL_BUDGET_S:
            raise BenchError(f"{chunk + 1} of {chunks} chunks took {spent:.0f} s; over the wall budget")
    times_ms = [t * 1000.0 for t in totals.times]
    tail_ms, tail_pct, beyond = tail(times_ms)
    metrics = {
        "items_per_s": totals.attempted / sum(totals.times),
        "item_p50_ms": statistics.median(times_ms),
        "item_tail_ms": tail_ms,
        "setup_s": statistics.median(totals.setups),
        "peak_rss_mib": max(totals.rss_kib) / 1024.0,
        "failed_frac": len(totals.failures) / totals.attempted,
    }
    detail = {
        "chunks": len(totals.setups),
        "items": totals.attempted,
        "timed_s": sum(totals.times),
        "item_tail_percentile": tail_pct,
        "item_tail_samples_beyond": beyond,
        "setup_s_all": totals.setups,
        "measured_items_per_s": totals.attempted / sum(totals.raw_times),
        "measured_setup_s": statistics.median(totals.raw_setups),
        "speed_factor_median": statistics.median(totals.factors),
        "reference_compared": totals.compared,
        "items_by_kind": dict(Counter(totals.kinds)),
        "chunk_items_per_s": totals.chunk_items_per_s,
    }
    return {"metrics": metrics, "detail": detail, "failures": totals.failures,
            "attempted": totals.attempted}


def verify_check_times(root: str, env: dict, out_dir: str) -> dict:
    """Per-check wall time of verify at VERIFY_SEED, measured once per source
    tree and interpreter, then read back from the build directory."""
    key = hashlib.sha256(
        f"{source_digest(root)}/{platform.python_version()}/{VERIFY_SEED}".encode()
    ).hexdigest()[:16]
    path = os.path.join(out_dir, f"verify-{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    _, rep = run_worker(["--verify-checks", str(VERIFY_SEED)], env, CHILD_TIMEOUT_S)
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh)
    return rep


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    merged = {"spans": spans, "counters": None, "points_built": 0, "points_compares": 0,
              "distance_levels": 0, "layer_outer_time": {}}
    for tr in traces:
        for name, rec in tr["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                acc[k] += v
        counters = tr["counters"]
        merged["counters"] = (
            counters if merged["counters"] is None
            else [a + b for a, b in zip(merged["counters"], counters)]
        )
        for k in ("points_built", "points_compares", "distance_levels"):
            merged[k] += tr[k]
        for layer, s in tr["layer_outer_time"].items():
            merged["layer_outer_time"][layer] = merged["layer_outer_time"].get(layer, 0.0) + s
    return merged


def per_layer_metrics(tr: dict, verify: dict, overhead: float) -> dict:
    # counter slots, in the order tracing.py defines them
    (boundary_entry, child_maxima, chain_entry, chain_pull, guard_answers, cell_hits, tuples,
     fp_entries) = tr["counters"]
    spans = tr["spans"]

    def cnt(name):
        return spans.get(name, {}).get("count", 0)

    def tm(name):
        return spans.get(name, {}).get("time", 0.0)

    def self_time(layer):
        return sum((r["self"] for n, r in spans.items() if n.startswith(layer + ".")), 0.0)

    splits = cnt("intervals.least_q_point_between")
    split_points = spans.get("intervals.least_q_point_between", {}).get("points", 0)
    distances = cnt("surjections.distance")
    cell_searches = cnt("experiments.find_cell_within")
    scan_s = tm("similarity.scan_types")
    out = {
        "points.built": tr["points_built"],
        "points.compares": tr["points_compares"],
        "intervals.splits": splits,
        "intervals.split_s": tm("intervals.least_q_point_between"),
        "intervals.split_yield": _ratio(splits, split_points),
        "intervals.split_recompute_ratio": _ratio(cnt("intervals.canonical_split_maxima"), child_maxima),
        "intervals.boundary_entry_calls": boundary_entry,
        "intervals.self_s": self_time("intervals"),
        "surjections.decode_s": tm("surjections.surjection_from_json"),
        "surjections.distance_s": tm("surjections.distance"),
        "surjections.distance_levels": tr["distance_levels"],
        "surjections.guard_ratio": _ratio(guard_answers, distances),
        "surjections.fingerprint_entries": fp_entries,
        "surjections.chain_entry_calls": chain_entry,
        "surjections.chain_memo_hit": 1.0 - chain_pull / chain_entry if chain_entry else 0.0,
        "surjections.evaluate_calls": cnt("surjections.evaluate"),
        "surjections.evaluate_s": tm("surjections.evaluate"),
        "surjections.factor_s": tm("surjections.factor_through") + tm("surjections.tuple_to_factor"),
        "surjections.self_s": self_time("surjections"),
        "similarity.tuples_classified": tuples,
        "similarity.scan_s": scan_s,
        "similarity.classify_rate": _ratio(tuples, scan_s),
        "similarity.coloring_calls": cnt("similarity.canonical_coloring"),
        "similarity.self_s": self_time("similarity"),
        "experiments.realize_s": tm("experiments.realize_all_colors"),
        "experiments.cell_searches": cell_searches,
        "experiments.cell_search_s": tm("experiments.find_cell_within"),
        "experiments.cell_hit_ratio": _ratio(cell_hits, cell_searches),
        "experiments.witness_s": tm("experiments.build_witness"),
        "experiments.oscillation_s": tm("experiments.oscillation_search"),
        "experiments.self_s": self_time("experiments"),
        "randgen.s": tr["layer_outer_time"].get("randgen", 0.0),
        "trace.overhead_ratio": overhead,
    }
    for idx, rec in sorted(verify["checks"].items(), key=lambda kv: int(kv[0])):
        out[f"verify.check{idx}_s"] = rec["seconds"]
    return out


def run_traced(root: str, args, env: dict, out_dir: str) -> dict:
    untraced, traced = Totals(), Totals()
    traces = []
    for chunk in range(TRACE_CHUNKS):
        start, rep = run_worker(chunk_args(args, chunk, 0), env, CHILD_TIMEOUT_S)
        check_module(root, rep)
        untraced.add(start, rep)
        spans = os.path.join(out_dir, "spans", f"{args.workload}-seed{args.seed}-chunk{chunk}.jsonl.gz")
        start, rep = run_worker(chunk_args(args, chunk, 1) + ["--spans", spans], env, CHILD_TIMEOUT_S)
        check_module(root, rep)
        traced.add(start, rep)
        traces.append(rep["trace"])
    verify = verify_check_times(root, env, out_dir)
    failures = untraced.failures + traced.failures
    for idx, rec in verify["checks"].items():
        if not rec["passed"]:
            failures.append({"verify_check": int(idx), "error": rec["detail"]})
    overhead = sum(traced.times) / sum(untraced.times)
    metrics = per_layer_metrics(merge_traces(traces), verify, overhead)
    detail = {
        "chunks": TRACE_CHUNKS,
        "items_untraced": untraced.attempted,
        "items_traced": traced.attempted,
        "untraced_s": sum(untraced.times),
        "traced_s": sum(traced.times),
        "verify_seed": verify["seed"],
        "verify_detail": {k: v["detail"] for k, v in verify["checks"].items()},
        "reference_compared": untraced.compared + traced.compared,
        "spans_dir": os.path.join(out_dir, "spans"),
    }
    return {"metrics": metrics, "detail": detail, "failures": failures,
            "attempted": untraced.attempted + traced.attempted}


def declared_units(root: str, trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=VERIFY_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip one recorded reference answer (self-check of the correctness gate)")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cantorsurj", "__init__.py")):
        print("perfbench: no src/cantorsurj here; run from the root of a cantorsurj checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"),
                           "perfbench")
    env = child_env(root)
    try:
        if args.trace:
            result = run_traced(root, args, env, out_dir)
        else:
            result = run_untraced(root, args, env)
            # the first run in a checkout, after its own measurement, also
            # times the verify checks that traced runs report
            verify_check_times(root, env, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics, failures = result["metrics"], result["failures"]
    declared = declared_units(root, args.trace)
    # printed in the record but not bounded: failed_frac is 0 whenever the
    # program is right
    units = {**declared, "failed_frac": "ratio"}
    for name, value in metrics.items():
        if name not in units or not math.isfinite(value):
            print(f"perfbench: metric {name} = {value} is not declared or not finite", file=sys.stderr)
            return 2
    missing = [n for n in declared if n not in metrics]
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics this run did not measure: {missing}",
              file=sys.stderr)
        return 2
    record = {
        "environment": environment(root, args),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "detail": result["detail"],
        "failures": failures[:20],
    }
    correct = not failures
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
