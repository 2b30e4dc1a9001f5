"""The benchmark's traced gate, run on this checkout.

Each workload in ``bench/`` runs one traced round at seed 0 in a fresh
interpreter, as ``python3 bench/run.py --trace 1`` does.  The round must
exit 0, record no failed check or request, pass the tracer's self-check
(every function the workload must reach got calls, and the layers' self
times cover the traced wall time) and reproduce the golden output digest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())["digests"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_traced_round_passes_the_gate(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, "0", "traced"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["failures"] == []
    assert out["trace"]["problems"] == []
    assert out["digest"] == GOLDEN[workload]["0"]
