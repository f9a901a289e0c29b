"""One traced round of the slowest benchmark workload.

The traced benchmark checks every output and marks the run incorrect
when a layer span it expects stays empty, so a change that stops going
through ``FiniteProperty.check``, ``PsiMap.of`` or the module-level
``check_reference_dependence`` names fails here and not only in a full
benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_traced_round_of_check_large_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "check_large",
         "--seed", "4", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] > 0
