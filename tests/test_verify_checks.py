"""Every theorem check can report a violation.

Each case makes one check of ``tdmsd.verify`` see a counterexample by
patching the binding that check reads, then asserts that the record fails
and names the wrong value.  The unpatched check passes on the same graph,
so the failure comes from the patch alone.
"""

import pytest

from tdmsd import complete, errors, generate_family, path, star
from tdmsd import verify


def _returns(value):
    return lambda real: lambda *args: value


def _negated(real):
    return lambda g: not real(g)


def _one_more(real):
    def patched(g, cap, memo):
        result = real(g, cap=cap, memo=memo)
        return result._replace(value=result.value + 1)

    return patched


# theorem id, the binding patched in tdmsd.verify, its replacement as a
# function of the real binding, the graph checked, and the record's actual
# field under the patch
CASES = [
    ("msd-le-3", "_msd3", _returns(None), complete(4), ">cap"),
    ("universal-vertex", "_msd3", _returns(3), complete(4), "3"),
    ("strong-support", "_msd3", _returns(3), star(4), "violated"),
    ("tree-sd-eq-msd", "msd_gamma_t", _one_more, path(4), "sd=1 msd=2"),
    ("family-sd3", "is_in_family", _negated, path(6), "sd3=True family=False"),
    ("sd1-characterization", "predicts_sd_one", _negated, path(4),
     "predicted=False sd1=True"),
    ("lemma2-implies", "_sd1", _returns(None), path(4), "sd1=False"),
    ("lemma14-implies", "_sd1", _returns(1), star(4), "sd=1"),
    ("bc-minimum", "verify_bc_property", _returns(False), generate_family(6)[0], "False"),
    ("path-cycle-formulas", "path_cycle_formula", _returns(3), path(5), "sd=1 msd=1"),
]

# further violations of theorems CASES already covers, with their own ids:
# no tree's sd exceeds the cap, so only a patch reaches this branch
MORE_CASES = [
    ("tree-sd-eq-msd", "_sd_msd", _returns((None, None)), path(4), "sd=>cap msd=>cap"),
]


def test_every_theorem_has_a_violation_case():
    assert sorted(case[0] for case in CASES) == sorted(verify.THEOREMS)


@pytest.mark.parametrize(
    "theorem, binding, replacement, graph, actual", CASES + MORE_CASES,
    ids=[case[0] for case in CASES] + ["tree-sd-eq-msd-both-over-cap"],
)
def test_check_reports_a_violation(theorem, binding, replacement, graph, actual, monkeypatch):
    check = verify.THEOREMS[theorem].check
    assert check(graph).ok
    monkeypatch.setattr(verify, binding, replacement(getattr(verify, binding)))
    record = check(graph)
    assert record.ok is False
    assert record.actual == actual


def test_path_cycle_violation_names_the_wrong_formula(monkeypatch):
    monkeypatch.setattr(verify, "path_cycle_formula", lambda n: 3)
    record = verify.THEOREMS["path-cycle-formulas"].check(path(5))
    assert record.expected == "sd=msd=3 for path n=5"


def test_universal_vertex_starts_at_the_connected_graphs_of_order_three():
    # P3 and K3, each with a universal vertex, so neither is skipped; the
    # theorem table's lower order is the check's only domain rule
    report = verify.run_verification("universal-vertex", 3, records=True)
    assert report.graphs_checked == 2 and report.ok
    assert [(r.graph6, r.expected) for r in report.records] == [
        ("Bo", "msd_gamma_t == 2"), ("Bw", "msd_gamma_t == 2"),
    ]
    with pytest.raises(errors.OutOfRange):
        verify.run_verification("universal-vertex", 2)
