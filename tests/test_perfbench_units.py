"""The benchmark's unit runner (perfbench/unit.py) still finds every binding
it wraps or reads: a traced sweep unit runs to the end, from cold caches, and
reports the expected verdict."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("theorem, n_max, graphs", [
    ("path-cycle-formulas", 6, 8),
    ("tree-sd-eq-msd", 8, 46),
])
def test_traced_sweep_unit_runs_fresh(theorem, n_max, graphs):
    env = dict(os.environ)
    env.pop("TDMSD_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "unit.py"), "sweep", theorem, "1",
         "--n-max", str(n_max), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["fresh"]
    assert out["graphs_checked"] == graphs
    assert out["failures"] == 0
    assert {"graph.subdivide", "subdivision.sd", "subdivision.msd"} <= set(out["trace"]["names"])
