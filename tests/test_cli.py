import io
import json
import subprocess
import sys

import pytest

from tdmsd import graph6_encode, gstar, path
from tdmsd.cli import main
from tdmsd.graph import format_edge_list


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_compute_gamma_t_fixture():
    code, out = run_cli("compute", "--input", "p6", "--invariant", "gamma_t")
    assert code == 0
    rec = last_json(out)
    # {0,1,3,4} is the lexicographically smallest of the minimum sets
    assert rec["value"] == 4 and rec["witness"] == [0, 1, 3, 4]


def test_compute_msd_t_on_k4():
    code, out = run_cli("compute", "--input", "k4", "--invariant", "msd_t")
    assert code == 0
    assert last_json(out)["value"] == 2


def test_compute_sd_t_on_gstar_file(tmp_path):
    path_file = tmp_path / "gstar.txt"
    path_file.write_text(format_edge_list(gstar()))
    code, out = run_cli("compute", "--input", str(path_file), "--invariant", "sd_t")
    assert code == 0
    rec = last_json(out)
    assert rec["value"] == 2 and rec["base_value"] == 6


def test_compute_accepts_graph6_literal():
    code, out = run_cli("compute", "--input", graph6_encode(path(6)), "--invariant", "gamma_t")
    assert code == 0
    assert last_json(out)["value"] == 4


def test_compute_parse_error_exits_2():
    code, _ = run_cli("compute", "--input", "!!definitely-not-a-graph", "--invariant", "gamma")
    assert code == 2


def test_compute_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, _ = run_cli("compute", "--input", str(bad), "--invariant", "gamma")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("compute", "--input", "p6", "--invariant", "sd_t", "--cap", "0"),
    ("compute", "--input", "p6", "--invariant", "msd_t", "--cap", "-1"),
    ("verify", "--theorem", "msd-le-3", "--n-max", "4", "--jobs", "0"),
])
def test_counts_below_one_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_compute_precondition_exits_3(tmp_path):
    disconnected = tmp_path / "two_edges.txt"
    disconnected.write_text("4 2\n0 1\n2 3\n")
    code, _ = run_cli("compute", "--input", str(disconnected), "--invariant", "msd_t")
    assert code == 3


def test_verify_small_sweep():
    code, out = run_cli("verify", "--theorem", "path-cycle-formulas", "--n-max", "8")
    assert code == 0
    rec = last_json(out)
    assert rec["ok"] and rec["failures"] == [] and rec["graphs_checked"] == 12


def test_verify_verbose_emits_per_graph_records():
    code, out = run_cli(
        "verify", "--theorem", "tree-sd-eq-msd", "--n-max", "6", "--verbose"
    )
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    per_graph = [ln for ln in lines if "graph6" in ln]
    assert len(per_graph) == 1 + 2 + 3 + 6  # trees of order 3..6
    assert all(ln["ok"] for ln in per_graph)


def test_verify_deterministic_across_jobs():
    _, out1 = run_cli("verify", "--theorem", "msd-le-3", "--n-max", "5", "--verbose")
    _, out2 = run_cli("verify", "--theorem", "msd-le-3", "--n-max", "5", "--verbose", "--jobs", "2")

    def strip_elapsed(text):
        lines = [json.loads(ln) for ln in text.strip().splitlines()]
        for rec in lines:
            rec.pop("elapsed_seconds", None)
        return lines

    assert strip_elapsed(out1) == strip_elapsed(out2)


def test_verify_unknown_theorem_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--theorem", "nonexistent")
    assert exc.value.code == 2


def test_verify_counterexample_exits_1(monkeypatch):
    # no real theorem fails, so stub a sweep that reports one failure
    from tdmsd import verify as verify_mod

    def broken_sweep(n_max, jobs):
        rec = verify_mod.Record("A_", False, "something", "otherwise")
        return (2, 2), [rec]

    monkeypatch.setitem(verify_mod.THEOREMS, "msd-le-3", (7, broken_sweep))
    code, out = run_cli("verify", "--theorem", "msd-le-3")
    assert code == 1
    rec = last_json(out)
    assert not rec["ok"] and rec["failures"][0]["graph6"] == "A_"


def test_family_generate_and_test(tmp_path):
    outdir = tmp_path / "members"
    code, out = run_cli("family", "generate", "--n-max", "10", "--out", str(outdir))
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines[-1]["members"] == 4
    files = sorted(outdir.iterdir())
    assert len(files) == 4
    body = files[0].read_text()
    assert body.splitlines()[0] == "6 5"
    assert body.splitlines()[-1].startswith("status: ")

    member_file = files[0]
    code, out = run_cli("family", "test", "--input", str(member_file))
    assert code == 0
    assert last_json(out)["in_family"] is True

    code, out = run_cli("family", "test", "--input", "p7")
    assert code == 0
    assert last_json(out)["in_family"] is False


def test_characterize_p5():
    code, out = run_cli("characterize", "--input", "p5")
    assert code == 0
    rec = last_json(out)
    assert rec["predicts_sd_one"] is True
    assert rec["sd_gamma_t"] == 1
    assert {"edge": [1, 2], "holds": True} in rec["inner_edges"]


def test_enum_trees():
    code, out = run_cli("enum", "--kind", "trees", "--n", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 11


def test_enum_connected():
    code, out = run_cli("enum", "--kind", "connected", "--n", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 21


def test_fixtures_listing_and_emit():
    code, out = run_cli("fixtures", "--list")
    assert code == 0
    assert "gstar" in out
    code, out = run_cli("fixtures", "--name", "gstar")
    assert code == 0
    assert out.splitlines()[0] == "12 15"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tdmsd.cli", "compute", "--input", "p4", "--invariant", "gamma"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout.strip())["value"] == 2
