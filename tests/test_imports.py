"""The commands that run no exact-integer claim load neither numpy nor mpmath.

numpy serves ``champions`` and ``reduction`` alone, and mpmath the 113-bit
escalation path alone; each is imported where it is used.  Every test here
runs in a fresh interpreter, because a test module that imports either
library would hide a top-level import.  This file imports neither, so it
also runs where numpy is not installed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_LEAN_COMMANDS = """
import sys
from psiverify.cli import main

work = sys.argv[1]
for argv in (
    ["verify", "lower", "--n-max", "3000"],
    ["verify", "upper", "mertens-trend", "--n-max", "3000"],
    ["scan", "lower", "--n-max", "200"],
    ["scan", "points", "--n-max", "200"],
    ["scan", "bounds", "--name", "zeta-tail", "--from", "2", "--to", "3000"],
    ["scan", "bounds", "--name", "criterion-gap", "--from", "3", "--to", "3000"],
    ["scan", "bounds", "--name", "rs-product", "--from", "1", "--to", "30000"],  # every index, by brackets
    ["scan", "bounds", "--name", "criterion-gap", "--from", "3", "--to", "30000"],  # the sq sum, every index
    ["verify", "rs-product", "zeta-tail", "psi-bound", "threshold", "robin-log", "criterion-gap", "--n-max", "3000"],
    ["compute", "600851475143", "--format", "json"],  # factorize trial-divides with no table
    ["compute", "999999999989", "--format", "json"],  # a prime: the most odd divisors factorize tries
    ["cache", "build", "--limit", "100000", "--cache-dir", work],
    ["scan", "lower", "--n-max", "3000", "--cache-dir", work],  # the loader reads the cache built above
    ["scan", "points", "--n-max", "200", "--format", "json"],  # the streamed JSON array
    ["cache", "inspect", "--cache-dir", work],
):
    code = main([*argv, "--output", f"{work}/{argv[0]}-{argv[1]}.out"])
    assert code == 0, (argv, code)
print(sorted({"numpy", "mpmath"} & set(sys.modules)))
"""

_ESCALATED_LOWER = """
import sys
import psiverify.bounds as bounds
from psiverify.cli import main
from psiverify.numerics import VerdictStatus

real_status, calls = bounds.ball_status, []

def first_inconclusive(margin, claim):
    calls.append(claim)
    return VerdictStatus.INCONCLUSIVE if len(calls) == 1 else real_status(margin, claim)

bounds.ball_status = first_inconclusive
assert "mpmath" not in sys.modules
sys.exit(main(["verify", "lower", "--n-max", "50", "--json", sys.argv[1]]))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSIVERIFY_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300)


def test_lower_scans_and_cache_load_neither_numpy_nor_mpmath(tmp_path):
    res = _python(_LEAN_COMMANDS, str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_an_escalated_lower_point_imports_mpmath_when_it_needs_it(tmp_path):
    report = tmp_path / "report.json"
    res = _python(_ESCALATED_LOWER, str(report))
    assert res.returncode == 0, res.stderr
    lower = json.loads(report.read_text())["claims"]["lower"]
    assert lower["details"]["escalated_at"] == [3]
    assert lower["counterexamples"] == []


@pytest.mark.parametrize("claims", [["champions"], []], ids=["champions", "all"])
def test_a_claim_that_needs_numpy_exits_2_and_names_it(tmp_path, claims):
    # a numpy that does not import: the run ends in a message and exit 2, not a traceback and exit 1
    shim = tmp_path / "numpy"
    shim.mkdir()
    (shim / "__init__.py").write_text('raise ImportError("shimmed out")\n')
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSIVERIFY_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), str(SRC), env.get("PYTHONPATH")]))
    argv = ["verify", *claims, "--n-max", "3000", "--champion-limit", "1000"]
    res = subprocess.run(
        [sys.executable, "-m", "psiverify.cli", *argv], env=env, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 2, res.stderr
    assert "numpy" in res.stderr and "Traceback" not in res.stderr
