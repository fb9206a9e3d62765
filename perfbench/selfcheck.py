"""Self-check of the correctness gate behind failed_frac.

For each workload, runs one chunk at the reference seed twice: as is, where
every item must pass and be compared with a recorded reference answer, and
with one reference answer corrupted, where the run must report a failed
item (failed_frac > 0) and exit non-zero.

    python3 perfbench/selfcheck.py [--workload W]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
from worker import REFERENCE_SEED


def bench(workload: str, corrupt: bool) -> tuple[int, dict, dict]:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(REFERENCE_SEED), "--seconds", "1", "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-reference")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=run.CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise run.BenchError(f"{workload}: no result (exit {proc.returncode}): {proc.stderr.strip()}")
    return proc.returncode, json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = ap.parse_args()
    ok = True
    for workload in args.workload or run.WORKLOADS:
        code, record, result = bench(workload, corrupt=False)
        compared = record["detail"]["reference_compared"]
        clean = code == 0 and result["correct"] and result["failed"] == 0 and compared > 0
        code_c, record_c, result_c = bench(workload, corrupt=True)
        frac = record_c["metrics"]["failed_frac"]["value"]
        caught = code_c != 0 and not result_c["correct"] and frac > 0
        print(f"{workload}: clean run exit {code}, failed {result['failed']}, {compared} answers compared;"
              f" corrupted reference exit {code_c}, failed_frac {frac:.4f}"
              f" -> {'ok' if clean and caught else 'FAIL'}")
        ok = ok and clean and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
