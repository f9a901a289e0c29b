"""One traced round of each benchmark workload.

The traced benchmark checks every output and marks the run incorrect
when a layer span it expects stays empty, so a change that stops going
through the traced names (``FiniteProperty.check``, ``PsiMap.of``, the
module-level ``check_reference_dependence``, ``cli._FITTERS``,
``cli.simulate_*``, ``risk.solve_linear_feasibility``) fails here and
not only in a full benchmark run.  Seeds 4 and 7 both run, so that a
span that fires only on some data (``engine.psi`` on ``check_large``)
is checked on a second draw.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# (workload, seed); the seed-4 cases keep the bare workload as their id
CASES = [(workload, seed) for seed in (4, 7)
         for workload in ("check_large", "fit_lottery", "study_small")]


@pytest.mark.parametrize("workload, seed", CASES,
                         ids=[w if s == 4 else f"{w}-seed{s}" for w, s in CASES])
def test_one_traced_round_is_correct(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
