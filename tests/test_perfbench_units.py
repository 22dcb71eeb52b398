"""The benchmark's unit runner (perfbench/unit.py) still finds every binding
it wraps or reads: a traced sweep or query unit runs to the end, from cold
caches, and reports the expected verdict or value; cli and setup units run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _unit(*args):
    env = dict(os.environ)
    env.pop("TDMSD_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "unit.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SEARCH_SPANS = {"subdivision.sd", "subdivision.msd"}
ROWS = [
    ("path-cycle-formulas", 6, 8, SEARCH_SPANS),
    ("tree-sd-eq-msd", 8, 46, SEARCH_SPANS),
    ("sd1-characterization", 6, 12, {"characterization", "subdivision.sd"}),
    ("lemma2-implies", 5, 35, {"characterization", "subdivision.sd"}),
    ("msd-le-3", 5, 30, {"enumeration.connected", "subdivision.msd"}),
]


@pytest.mark.parametrize("theorem, n_max, graphs, spans", ROWS,
                         ids=[f"{t}-{n}-{g}" for t, n, g, _ in ROWS])
def test_traced_sweep_unit_runs_fresh(theorem, n_max, graphs, spans):
    out = _unit("sweep", theorem, "1", "--n-max", str(n_max), "--trace")
    assert out["fresh"]
    assert out["graphs_checked"] == graphs
    assert out["failures"] == 0
    names = set(out["trace"]["names"])
    assert spans <= names
    # the searches wire a subdivided graph's cover sets and never build it
    assert "graph.subdivide" not in names
    # the connected generator computes no canonical code
    assert out["trace"]["counters"].get("enumeration.codes", 0) == 0


QUERIES = [
    ("p6", "sd_t", 3, {"cli", "subdivision.sd"}),
    ("gstar", "msd_t", 3, {"cli", "subdivision.msd"}),
    ("k4", "gamma_t", 2, {"cli", "domination.gamma_t"}),
]


@pytest.mark.parametrize("graph, invariant, value, spans", QUERIES,
                         ids=[f"{g}-{i}" for g, i, _, _ in QUERIES])
def test_traced_query_unit_runs_fresh(graph, invariant, value, spans):
    out = _unit("query", graph, invariant, "--trace")
    assert out["fresh"]
    assert out["value"] == value
    # the listed spans and no graph.subdivide: queries build no subdivided graph
    assert set(out["trace"]["names"]) == spans


def test_cli_unit_runs_the_cli_module():
    out = _unit("cli", "compute", "--input", "p7", "--invariant", "msd_t")
    assert out["invariant"] == "msd_t" and out["value"] == 2


def test_setup_unit_reports_its_import():
    out = _unit("setup")
    assert out["import_done"] > 0 and out["speed"]["samples"] >= 1
