"""Every theorem check can report a violation.

Each case makes one check of ``tdmsd.verify`` see a counterexample by
patching the binding that check reads, then asserts that the record fails
and names the wrong value.  The unpatched check passes on the same graph,
so the failure comes from the patch alone.
"""

import time

import pytest

from tdmsd import complete, errors, generate_family, graph6_decode, path, star
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

# further violations of theorems CASES already covers, by id: each reaches
# a clause of its check that no other case fails alone
MORE_CASES = {
    # no tree's sd exceeds the cap, so only a patch reaches this branch
    "tree-sd-eq-msd-both-over-cap":
        ("tree-sd-eq-msd", "_sd_msd", _returns((None, None)), path(4), "sd=>cap msd=>cap"),
    # one tree per clause of the msd = 3 shape, each violating it there
    # alone: P4's longest path is shorter than 6; deg(v2) is 3 on one
    # longest path of GhQ?GC, whose v1 has degree 2; v3 of Gh_GK? is a
    # support; and each longest path of Gh_K?C fails only read from its
    # other end
    "strong-support-path-too-short":
        ("strong-support", "_msd3", _returns(3), graph6_decode("Ck"), "violated"),
    "strong-support-v2-not-degree-two":
        ("strong-support", "_msd3", _returns(3), graph6_decode("GhQ?GC"), "violated"),
    "strong-support-v3-a-support":
        ("strong-support", "_msd3", _returns(3), graph6_decode("Gh_GK?"), "violated"),
    "strong-support-fails-reversed-only":
        ("strong-support", "_msd3", _returns(3), graph6_decode("Gh_K?C"), "violated"),
    # P5's sd and msd are both 1, and each must match the formula
    "path-cycle-msd-wrong":
        ("path-cycle-formulas", "_sd_msd", _returns((1, 2)), path(5), "sd=1 msd=2"),
    "path-cycle-sd-wrong":
        ("path-cycle-formulas", "_sd_msd", _returns((2, 1)), path(5), "sd=2 msd=1"),
}


def test_every_theorem_has_a_violation_case():
    assert sorted(case[0] for case in CASES) == sorted(verify.THEOREMS)


@pytest.mark.parametrize(
    "theorem, binding, replacement, graph, actual", CASES + list(MORE_CASES.values()),
    ids=[case[0] for case in CASES] + list(MORE_CASES),
)
def test_check_reports_a_violation(theorem, binding, replacement, graph, actual, monkeypatch):
    check = verify.THEOREMS[theorem].check
    assert check(graph).ok
    monkeypatch.setattr(verify, binding, replacement(getattr(verify, binding)))
    record = verify._recorder(check, False)(graph)
    assert record.ok is False
    assert record.actual == actual


@pytest.mark.parametrize("theorem", ["tree-sd-eq-msd", "msd-le-3", "path-cycle-formulas"])
def test_only_recorded_graphs_have_their_values_formatted(theorem, monkeypatch):
    # a passing graph's text is formatted only when every record is asked
    # for, and then once for each graph
    formatted = []
    fmt = verify._fmt

    def counting(value):
        formatted.append(value)
        return fmt(value)

    monkeypatch.setattr(verify, "_fmt", counting)
    n_max = {"tree-sd-eq-msd": 10, "msd-le-3": 5, "path-cycle-formulas": 10}[theorem]
    assert verify.run_verification(theorem, n_max).ok
    assert formatted == []
    report = verify.run_verification(theorem, n_max, records=True)
    per_graph = 1 if theorem == "msd-le-3" else 2
    assert len(formatted) == per_graph * report.graphs_checked


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


def test_path_cycle_sweep_runs_to_its_cap():
    # the paths and cycles of order 3 to 61, the last whose subdivisions
    # stay within the 64-vertex cap; the report's time lies within the call's
    start = time.perf_counter()
    report = verify.run_verification("path-cycle-formulas", 61)
    wall = time.perf_counter() - start
    assert report.ok and report.graphs_checked == 118
    assert 0 <= report.elapsed <= wall
    with pytest.raises(errors.OutOfRange, match="checks n_max in 3..61, got 62"):
        verify.run_verification("path-cycle-formulas", 62)
