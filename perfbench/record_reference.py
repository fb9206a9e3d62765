"""Record the reference answers that the correctness gate compares against.

Runs every chunk of a ``--seed 42`` run of each workload once, checks every
item, and writes the hash of each item's answer value to
``perfbench/reference/<workload>.json``.  Answers are mathematical values
(a distance's Dyadic, boundary tuples, realized colors and witnesses), not
certificate wording.  Record only from a commit whose answers are trusted;
the committed files were recorded from the seed commit of the benchmark.

    python3 perfbench/record_reference.py [--workload W] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from worker import REFERENCE_DIR, REFERENCE_SEED


def record(root: str, workload: str, seconds: float) -> dict:
    env = run.child_env(root)
    items: dict[str, str] = {}
    for chunk in range(run.chunk_count(workload, seconds)):
        args = ["--workload", workload, "--seed", str(REFERENCE_SEED), "--chunk", str(chunk), "--record"]
        _, rep = run.run_worker(args, env, run.CHILD_TIMEOUT_S)
        if rep["failures"]:
            raise run.BenchError(f"{workload} chunk {chunk} has failing items: {rep['failures'][:3]}")
        for i, value in enumerate(rep["digests"]):
            items[f"{chunk}:{i}"] = value
    return {"seed": REFERENCE_SEED, "commit": run.commit_of(root), "items": items}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    ap.add_argument("--seconds", type=float, help="run length to cover (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args()
    root = os.getcwd()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        ref = record(root, workload, seconds)
        with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(ref['items'])} reference answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
