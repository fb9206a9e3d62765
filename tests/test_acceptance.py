"""End-to-end acceptance gate: one test per shipped criterion.

Each test prints a single PASS/FAIL line and asserts.  Criteria 1..9 run
the matching case of the seeded verification suite; criterion 10 runs the
installed entry point twice and compares raw bytes, and pins them and a
`verify --seed 7 --json` run to the regression oracles' sha256.
"""

import hashlib
import subprocess
import sys
import time

from cantorsurj.verify import run_suite

SEED = 42
# sha256 of `cantorsurj verify --seed 42` and `--seed 7 --json` stdout, the regression oracles
VERIFY_42_SHA256 = "97ff6356e1bf11ec3afe4c66dbe887006db9f74cab96e13745201f80062f6645"
VERIFY_7_JSON_SHA256 = "e8324e9da182958d8fe927d870f23ef8bff165eeb8c834f297b0392dc3b556d6"


def _criterion(n, name, budget_s=None):
    t0 = time.monotonic()
    rep = run_suite(SEED, only={n})
    elapsed = time.monotonic() - t0
    result = rep.results[0]
    ok = rep.passed and (budget_s is None or elapsed <= budget_s)
    print(f"criterion {n:2d} {'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s)")
    assert result.passed, result.detail + "\n" + "\n".join(result.failures)
    if budget_s is not None:
        assert elapsed <= budget_s, f"{elapsed:.2f}s over the {budget_s}s budget"
    return result


def test_c01_tangent_numbers():
    r = _criterion(1, "tangent numbers vs both oracles", budget_s=1.0)
    assert "7936" in r.detail


def test_c02_type_counts():
    r = _criterion(2, "similarity type counts", budget_s=60.0)
    assert "272" in r.detail


def test_c03_bijection_roundtrip():
    r = _criterion(3, "surjection/filtering roundtrip", budget_s=None)
    assert "1000" in r.detail


def test_c04_monoid_laws():
    r = _criterion(4, "identity and associativity", budget_s=None)
    assert "200" in r.detail


def test_c05_metric_criterion():
    r = _criterion(5, "distance vs sampling sup-oracle", budget_s=None)
    assert "500 pairs" in r.detail and "0 mismatches" in r.detail


def test_c06_factorization_roundtrip():
    r = _criterion(6, "factorization roundtrips", budget_s=None)
    assert "200" in r.detail


def test_c07_color_realization():
    _criterion(7, "all 16 colors realized over random inner maps", budget_s=120.0)


def test_c08_omega_witnesses():
    r = _criterion(8, "branch-color witnesses for every target <= 8", budget_s=60.0)
    assert "witnesses" in r.detail


def test_c09_oscillation_exact():
    r = _criterion(9, "oscillation search, exact regime", budget_s=None)
    assert "re-verified" in r.detail


def test_c10_byte_identical_verify():
    cmd = [sys.executable, "-m", "cantorsurj", "verify", "--seed", str(SEED)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = first.returncode == second.returncode == 0 and first.stdout == second.stdout
    print(f"criterion 10 {'PASS' if ok else 'FAIL'} byte-identical verify reports")
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().endswith("9/9 passed, seed=42\n")
    assert hashlib.sha256(first.stdout).hexdigest() == VERIFY_42_SHA256
    as_json = subprocess.run(cmd[:-1] + ["7", "--json"], capture_output=True)
    assert as_json.returncode == 0, as_json.stdout.decode()[-2000:]
    assert hashlib.sha256(as_json.stdout).hexdigest() == VERIFY_7_JSON_SHA256
