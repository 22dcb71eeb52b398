import ast
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import unicodedata
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tdmsd import (
    enumerate_connected_graphs,
    enumerate_trees,
    fixture_by_name,
    generate_family,
    graph6_decode,
    graph6_encode,
    gstar,
    path,
)
from tdmsd import cli
from tdmsd.cli import main
from tdmsd.errors import MalformedInput, UnknownFixture
from tdmsd.graph import format_edge_list
from tdmsd.verify import THEOREMS

from oracles import FIXTURE_NAME, bitwise_graph6, input_lines, recognize_input


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def _run_module(*argv, **kwargs):
    """Run python -m tdmsd.cli in a subprocess, with subprocess.run's
    kwargs.  conftest puts src/ on this process's path only, so the
    subprocess gets it too, and the suite runs without an installed
    package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "tdmsd.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60, **kwargs)


def test_compute_gamma_t_fixture():
    code, out = run_cli("compute", "--input", "p6", "--invariant", "gamma_t")
    assert code == 0
    rec = last_json(out)
    # {0,1,3,4} is the lexicographically smallest of the minimum sets
    assert rec["value"] == 4 and rec["witness"] == [0, 1, 3, 4]


# a random tree: edges (rng.randrange(v), v) for v = 1..59, rng = Random(7);
# its total domination number is 27
_TREE60 = (
    "{qa?S?C_?@A?_?O??O?C?G??@?@?????G?@?O?????CA????O?????G???C???C?O??????A????C"
    "???C???O??????G??@??????C???????_??????G??A??????????O?O??????????A???A??????"
    "???G???????@?@??????C????????????G???????_???????A???O?????????G?????_???????"
    "?????C??????????_?O?????????????A???C???????????????_????G???????"
)


def _tree60_witnesses():
    from tdmsd import gamma_t_set_avoiding_leaves

    code, out = run_cli("compute", "--input", _TREE60, "--invariant", "gamma_t")
    assert code == 0
    return last_json(out)["witness"], sorted(gamma_t_set_avoiding_leaves(graph6_decode(_TREE60)))


def test_tree60_gamma_t_witnesses_take_under_a_second():
    from tdmsd import is_total_dominating

    start = time.process_time()
    witnesses = _tree60_witnesses()
    assert time.process_time() - start < 1.0
    for witness in witnesses:
        assert len(witness) == 27 and is_total_dominating(graph6_decode(_TREE60), witness)


@pytest.mark.slow
def test_tree60_gamma_t_witnesses_are_the_first_minimum_sets():
    from tdmsd.graph import iter_bits, leaves_mask
    from oracles import covers_of_size

    g = graph6_decode(_TREE60)
    firsts = [list(iter_bits(covers_of_size(g.adj, g.full_mask, 27, allowed, True)[0]))
              for allowed in (g.full_mask, g.full_mask & ~leaves_mask(g))]
    assert list(_tree60_witnesses()) == firsts


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


def test_compute_output_is_frozen():
    # sha256 of "<exit code> <stdout>" for every invariant of each input, in
    # this order: fixtures, then K7 and K8 as graph6 literals
    outputs = []
    for spec in ("p6", "k4", "gstar", "c9", "wheel5", "star6", "p7", "F~~~w", "G~~~~{"):
        for invariant in ("gamma", "gamma_t", "sd", "msd", "sd_t", "msd_t"):
            code, out = run_cli("compute", "--input", spec, "--invariant", invariant)
            outputs.append(f"{code} {out}")
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == "9bd51cf145ebda1bea2fa28138fdae4e6e2d38e0a6b8522972baed851d7e1712"


def test_compute_parse_error_exits_2():
    code, _ = run_cli("compute", "--input", "!!definitely-not-a-graph", "--invariant", "gamma")
    assert code == 2


@pytest.fixture
def read_back(monkeypatch):
    """Run compute on an --input and return the graph it read (the graph it
    hands to gamma)."""
    seen = []
    real = cli.gamma
    monkeypatch.setattr(cli, "gamma", lambda g: seen.append(g) or real(g))

    def read(spec):
        code, _ = run_cli("compute", "--input", spec, "--invariant", "gamma")
        assert code == 0, spec
        return seen.pop()

    return read


def test_edge_list_and_graph6_files_read_back(tmp_path, read_back):
    g = gstar()
    edge_list = tmp_path / "gstar.txt"
    edge_list.write_text(format_edge_list(g))
    headed = tmp_path / "gstar.g6"
    headed.write_text(">>graph6<<" + graph6_encode(g) + "\n")
    assert read_back(str(edge_list)) == read_back(str(headed)) == g


@pytest.mark.parametrize("spec, message", [
    # a first line holding whitespace is an edge-list header
    ("3 x", "error: bad header '3 x'\n"),
    # a field is a run of ASCII digits, so a negative count or index is the
    # header's or the edge line's fault
    ("3 -1", "error: bad header '3 -1'\n"),
    ("2 1\n0 -1", "error: bad edge line '0 -1'\n"),
    # a lone "\r" ends no line, in a file as in a literal
    ("2 1\r0 1", "error: expected 'n m' header, got '2 1\\r0 1'\n"),
    # graph6 text is one line
    ("Bw\nnot a graph", "error: unexpected trailing line 'not a graph'\n"),
    # any other text is graph6: order 2 needs one data byte
    ("A", "error: expected 1 data bytes for n=2, got 0\n"),
])
def test_reader_picks_the_parser_by_the_first_line(spec, message, capsys):
    code, _ = run_cli("compute", "--input", spec, "--invariant", "gamma")
    assert code == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("argv", [
    ("compute", "--format", "graph6", "--input", "p4", "--invariant", "gamma"),
    ("family", "test", "--format", "edge-list", "--input", "p7"),
    ("characterize", "--format", "auto", "--input", "p5"),
])
def test_input_format_option_is_gone(argv):
    code, err = _exit_and_stderr(argv)
    assert code == 2
    assert "unrecognized arguments: --format" in err


def test_compute_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, _ = run_cli("compute", "--input", str(bad), "--invariant", "gamma")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_compute_directory_input_is_usage_error(tmp_path, capsys):
    code, _ = run_cli("compute", "--input", str(tmp_path), "--invariant", "gamma_t")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("size, message", [
    # 1 MiB is read whole, and holds no graph
    (1 << 20, "error: empty graph input\n"),
    ((1 << 20) + 1, "error: {}: larger than 1048576 bytes\n"),
])
def test_input_file_is_read_up_to_one_mib(size, message, tmp_path, capsys):
    spaces = tmp_path / "spaces"
    spaces.write_bytes(b" " * size)
    code, out = run_cli("compute", "--input", str(spaces), "--invariant", "gamma_t")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == message.format(spaces)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_input_is_refused_after_its_bound():
    # an unbounded read of /dev/zero ends in a MemoryError (exit 4) under this limit
    import resource

    limit = 400 << 20
    proc = _run_module("compute", "--input", "/dev/zero", "--invariant", "gamma_t",
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 2
    assert proc.stderr == "error: /dev/zero: larger than 1048576 bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_input_piped_to_dev_stdin():
    proc = _run_module("compute", "--input", "/dev/stdin", "--invariant", "gamma_t", input="Bw\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 2


def test_oversized_fixture_is_usage_error_before_it_is_built():
    # built first, k1000 would fail only after listing its 499,500 edges
    # (TooLarge, exit 3); k<huge> would not fit in memory
    code, _ = run_cli("compute", "--input", "k1000", "--invariant", "gamma")
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ("k100000", "error: k100000: parameter above the 64-vertex cap\n"),
    ("p0", "error: p0: parameter below minimum 1\n"),
    # wheel<k> has k + 1 vertices
    ("wheel64", "error: wheel64: parameter above the 64-vertex cap\n"),
    # more digits than int() reads, refused before it reads them
    pytest.param("p" + "9" * 5000, f"error: p{'9' * 5000}: parameter above the 64-vertex cap\n",
                 id="p-5000-nines"),
    # an Arabic-Indic three is no parameter, so the name is read as graph6
    pytest.param("p\u0663", "error: byte 1635 outside the graph6 alphabet\n", id="p-arabic-indic-3"),
])
def test_bad_fixture_parameter_keeps_the_fixture_message(spec, message, capsys):
    code, _ = run_cli("compute", "--input", spec, "--invariant", "gamma")
    assert code == 2
    err = capsys.readouterr().err
    assert err == message and "Traceback" not in err


@pytest.mark.parametrize("name", [
    pytest.param("\u212a4", id="kelvin-sign-4"),
    pytest.param("\u00a0gstar", id="no-break-space-gstar"),
])
def test_non_ascii_name_is_no_fixture(name):
    # str.lower() maps the Kelvin sign to k, and str.strip() drops the
    # no-break space, so each name would otherwise resolve
    with pytest.raises(UnknownFixture):
        fixture_by_name(name)


def test_kelvin_sign_name_is_read_as_graph6_and_refused(capsys):
    code, out = run_cli("compute", "--input", "\u212a4", "--invariant", "gamma_t")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: byte 8490 outside the graph6 alphabet\n"


@pytest.mark.parametrize("spec, byte", [
    pytest.param("\u00a0gstar", 160, id="no-break-space-first"),
    pytest.param("gstar\u2028", 8232, id="line-separator-last"),
    pytest.param("gstar\x85", 133, id="next-line-last"),
    # str.strip() drops ASCII \x1c to \x1f too; with either kept, a fixture
    # name is no fixture, and its first byte outside the alphabet is named
    pytest.param("\x1cgstar", 28, id="file-separator-first"),
    pytest.param("p6\x1f", 54, id="unit-separator-last"),
    pytest.param("E?~o\x1f", 31, id="unit-separator-after-graph6"),
])
def test_graph_text_strips_only_ascii_whitespace(spec, byte, capsys):
    # str.strip() and str.splitlines() would drop each of these, leaving a
    # fixture name or graph6 text to be read; kept, it is the byte the
    # graph6 decoder names
    message = f"byte {byte} outside the graph6 alphabet"
    with pytest.raises(MalformedInput, match=f"^{message}$"):
        cli._read_graph(spec)
    code, out = run_cli("compute", "--input", spec, "--invariant", "gamma_t")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    # the no-break space separates no fields, so the first line is one
    # field, read as graph6
    pytest.param("2\u00a01\n0\u00a01", "byte 50 outside the graph6 alphabet",
                 id="no-break-space"),
    # U+2028 ends no line, so the edge list is one line, a bad header
    pytest.param("2 1\u2028 0 1", "expected 'n m' header, got '2 1\\u2028 0 1'",
                 id="line-separator"),
    # int() would strip the no-break space and read the fullwidth digit
    pytest.param("2 1\n0 \u00a01", "bad edge line '0 \\xa01'", id="no-break-space-field"),
    pytest.param("2 1\n0 \uff11", "bad edge line '0 \uff11'", id="fullwidth-digit"),
    # int() would also read 1_1 as 11 and +1 as 1
    pytest.param("1_1 1\n0 1", "bad header '1_1 1'", id="digit-group"),
    pytest.param("2 1\n0 +1", "bad edge line '0 +1'", id="plus-sign"),
])
def test_edge_list_text_takes_only_ascii_separators_and_digits(spec, message, capsys):
    # str.split(), str.splitlines() and int() would read each as a graph
    with pytest.raises(MalformedInput, match=f"^{re.escape(message)}$"):
        cli._read_graph(spec)
    code, out = run_cli("compute", "--input", spec, "--invariant", "gamma_t")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("spec, gamma", [
    ("gstar", 4), ("p7", 3), ("E?~o", 2), (graph6_encode(path(6)), 2),
    (" gstar", 4), ("\tp7\r\n", 3), ("\v" + graph6_encode(path(6)) + "\f\n", 2),
    ("wheel63", 1),  # 64 vertices, at the cap
])
def test_fixture_names_and_graph6_literals_still_resolve(spec, gamma):
    code, out = run_cli("compute", "--input", spec, "--invariant", "gamma")
    assert code == 0 and last_json(out)["value"] == gamma


def test_unexpected_exception_exits_internal(monkeypatch, capsys):
    def broken(args, out):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "compute", broken)
    code, _ = run_cli("compute", "--input", "p6", "--invariant", "gamma_t")
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def _exit_and_stderr(argv):
    """Exit code and stderr of one in-process run, argparse exits included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(list(argv), out=io.StringIO())
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@st.composite
def _graph6_like(draw):
    # orders up to 12 and bodies within one byte of the right length, so that
    # every input that parses is small enough to solve at once
    n = draw(st.integers(1, 12))
    need = (n * (n - 1) // 2 + 5) // 6
    body = draw(st.text(st.characters(min_codepoint=63, max_codepoint=126),
                        min_size=max(0, need - 1), max_size=need + 1))
    return chr(n + 63) + body


_LITERALS = st.one_of(
    _graph6_like(),
    st.text(max_size=20),
    st.from_regex(r"(p|c|k|star|wheel|gstar)[0-9]{0,3}", fullmatch=True),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _non_ascii(*categories):
    """The characters of the Basic Multilingual Plane above ASCII in one of
    these Unicode categories."""
    return [chr(c) for c in range(0x80, 0x10000) if unicodedata.category(chr(c)) in categories]


# one character each, its class drawn first: Unicode spaces and line and
# paragraph separators; C0 controls and their neighbours; non-ASCII digits;
# fullwidth forms; the letters IGNORECASE matches to k, s and i; and ASCII
# that int() reads or that ends a line elsewhere
_POOL = st.sampled_from([
    _non_ascii("Zs", "Zl", "Zp"),
    [chr(c) for c in range(0x20)] + ["\x7f", "\x85", "\ufeff"],
    _non_ascii("Nd"),
    [chr(c) for c in range(0xff01, 0xff5f)],
    ["\u212a", "\u017f", "\u0131"],
    ["\r", "-", "+", "_"],
]).flatmap(st.sampled_from)
_SEP = st.text(st.sampled_from(" \t\r\v\f"), min_size=1, max_size=2)
# padding may hold "\n", so it also makes blank lines
_PAD = st.text(st.sampled_from(" \t\n\r\v\f"), max_size=2)


@st.composite
def _small_graph(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []


@st.composite
def _edge_list_text(draw):
    n, edges = draw(_small_graph())

    def pair(a, b):
        zeros = draw(st.sampled_from(["", "0"]))
        return f"{draw(_PAD)}{zeros}{a}{draw(_SEP)}{b}{draw(_PAD)}"

    lines = [pair(n, len(edges))]
    lines += [pair(*draw(st.permutations(edge))) for edge in edges]
    lines += draw(st.lists(st.sampled_from(["# a comment", "status: AB"]), max_size=2))
    return "\n".join(lines)


@st.composite
def _graph6_text(draw):
    header = draw(st.sampled_from(["", ">>graph6<<"]))
    return draw(_PAD) + header + bitwise_graph6(*draw(_small_graph())) + draw(_PAD)


@st.composite
def _fixture_text(draw):
    prefix = draw(st.sampled_from(["gstar", "p", "c", "k", "star", "wheel"]))
    name = prefix if prefix == "gstar" else f"{prefix}{draw(st.integers(0, 66))}"
    case = draw(st.sampled_from([str.lower, str.upper, str.title]))
    return draw(_PAD) + case(name) + draw(_PAD)


@st.composite
def _mutated(draw, texts):
    """A text of texts, kept or with one character of _POOL inserted or put
    in place of another."""
    text = draw(texts)
    if draw(st.booleans()):
        return text
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(_POOL) + text[i + draw(st.integers(0, 1)):]


def _read(spec):
    """What _read_graph makes of spec: the graph as (n, edges), or the
    message of its MalformedInput."""
    try:
        g = cli._read_graph(spec)
    except MalformedInput as exc:
        return str(exc)
    return g.n, g.edges()


# a refusal's message ends in the line it quotes, written by repr
_QUOTED_LINE = re.compile(r"(?:got|header|line) ('.*'|\".*\")\Z")
_NAMED_BYTE = re.compile(r"byte ([0-9]+) ")


def _check_message(message, text):
    """A refusal of text names only what text holds: a line it quotes is one
    of text's lines as the grammar splits them, a byte it names one of
    text's characters."""
    quoted = _QUOTED_LINE.search(message)
    if quoted:
        assert ast.literal_eval(quoted.group(1)) in input_lines(text), message
    byte = _NAMED_BYTE.match(message)
    if byte:
        assert chr(int(byte.group(1))) in text, message


@settings(max_examples=300, deadline=None)
@given(spec=st.one_of(_mutated(st.one_of(_edge_list_text(), _graph6_text(), _fixture_text())),
                      _LITERALS, st.binary(max_size=64)))
@example(spec="p" + "9" * 5000)  # int() of the parameter raised
@example(spec="\u212a4")  # str.lower() made the Kelvin sign k
@example(spec="\u00a0gstar")  # str.strip() dropped the no-break space
@example(spec="Bw\u2028")  # str.strip() dropped the line separator
@example(spec="2 1\n0 \uff11")  # int() read the fullwidth digit
@example(spec="2\u00a01\n0\u00a01")  # str.split() split at the no-break space
@example(spec="\x1cgstar")  # str.strip() dropped the file separator
@example(spec="Bw\nnot a graph")  # graph6 text was read from its first line only
@example(spec="2 1\r0 1")  # a file's lone "\r" was a line end, a literal's not
def test_reader_agrees_with_the_grammar_oracle(fuzz_file, spec):
    # text is read as a literal and from a file, bytes from a file only
    literal = isinstance(spec, str)
    assume(not (literal and os.path.exists(spec)))
    data = spec.encode("utf-8") if literal else spec
    fuzz_file.write_bytes(data)
    try:
        expected = recognize_input(data.decode("utf-8"), literal=False)
    except UnicodeDecodeError:
        expected = None
    read = from_file = _read(str(fuzz_file))
    assert from_file == expected if expected else isinstance(from_file, str)
    if expected is None:
        _check_message(from_file, data.decode("utf-8", "replace"))
    if literal:
        read = _read(spec)
        expected = recognize_input(spec)
        assert read == expected if expected else isinstance(read, str)
        if expected is None:
            _check_message(read, spec)
        if not FIXTURE_NAME.fullmatch(spec):
            # the same graph or the same message
            assert read == from_file
    code, err = _exit_and_stderr(
        ["compute", "--input", spec if literal else str(fuzz_file), "--invariant", "gamma_t"])
    assert "Traceback" not in err
    assert code == 2 if isinstance(read, str) else code in (0, 3)


# no verify or family generate: each fragment stays a single quick query
_TOKENS = [
    "compute", "enum", "fixtures", "characterize", "family", "test",
    "--input", "--invariant", "--cap", "--format", "--kind", "--n", "--name",
    "--list", "--help", "p6", "k4", "gamma_t", "sd_t", "msd", "graph6",
    "edge-list", "trees", "connected", "0", "-1", "3", "40", "x",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=8))
def test_fuzzed_argv_never_crashes(argv):
    code, err = _exit_and_stderr(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


# orders each sweep checks in well under a second; the connected theorems
# check every connected graph up to min(n_max, 7)
_QUICK_N_MAX = {theorem: 6 if theorem in ("msd-le-3", "universal-vertex", "lemma2-implies")
                else 9 for theorem in THEOREMS}
_BAD_COUNTS = ["-1", "0", "x", "", "1e3", "100000"]


@st.composite
def _verify_or_family_argv(draw, out_file, out_dir):
    """verify or family generate, its option fragments in any order.

    --n-max is at most the theorem's quick order or a bad count that argparse
    or the order check rejects before any work.  Optional fragments may
    repeat, and one token may be dropped.
    """
    if draw(st.booleans()):
        command = ["verify"]
        theorem = draw(st.sampled_from(sorted(THEOREMS) + ["nope"]))
        top = _QUICK_N_MAX.get(theorem, 9)
        n_max = draw(st.one_of(st.integers(-1, top).map(str), st.sampled_from(_BAD_COUNTS)))
        required = [["--theorem", theorem], ["--n-max", n_max]]
        optional = [["--jobs", draw(st.sampled_from(["1", "0", "-1", "x"]))],
                    ["--verbose"], ["--out", draw(st.sampled_from([out_file, out_dir]))]]
    else:
        command = ["family", "generate"]
        n_max = draw(st.one_of(st.integers(-1, 14).map(str), st.sampled_from(_BAD_COUNTS)))
        required = [["--n-max", n_max]]
        optional = [["--out", draw(st.sampled_from([out_dir, out_file]))]]
    fragments = required + draw(st.lists(st.sampled_from(optional), max_size=3))
    argv = command + [tok for frag in draw(st.permutations(fragments)) for tok in frag]
    # dropping a token leaves an option without its value or a stray value
    if draw(st.booleans()):
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


@pytest.fixture(scope="module")
def fuzz_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-out")
    return str(root / "report.jsonl"), str(root / "members")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_verify_and_family_argv_never_crash(fuzz_outputs, data):
    argv = data.draw(_verify_or_family_argv(*fuzz_outputs))
    assume("--n-max" in argv)  # a default order would run a full sweep
    code, err = _exit_and_stderr(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err


def test_family_generate_out_on_a_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, _ = run_cli("family", "generate", "--n-max", "8", "--out", str(target))
    assert code == 2
    assert "cannot create directory" in capsys.readouterr().err


def test_family_generate_unwritable_member_is_a_usage_error(tmp_path, capsys):
    # the directory is there, but a member's file name is taken by a folder:
    # the first member's, or one that comes after members that could be
    # written, and none of them is
    for name in ("member_000_n6.txt", "member_002_n10.txt"):
        directory = tmp_path / name.split("_")[1]
        taken = directory / name
        taken.mkdir(parents=True)
        code, out = run_cli("family", "generate", "--n-max", "10", "--out", str(directory))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {taken}: cannot write (") and err.count("\n") == 1
        assert [p.name for p in directory.iterdir()] == [name]


def _closed_after_first_line(*args):
    """Run python with args in a subprocess that finds src/ as _run_module's
    does, close its stdout after the first line, and return that line, the
    exit code and stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    return first, code, err


# a verify whose check fails on each of 20,000 paths, far more records than
# a pipe holds
_VIOLATED = """
import sys
from tdmsd import cli, path, verify
check = lambda g: verify.Verdict(False, "something", "otherwise")
verify.THEOREMS["msd-le-3"] = verify.Theorem(check, lambda lo, hi: [(path(2),)] * 20000, 2, 2, 2)
raise SystemExit(cli.main(["verify", "--theorem", "msd-le-3", "--verbose"]))
"""


@pytest.mark.parametrize("args, first, expected", [
    # 19,320 trees, 425,040 bytes
    (("-m", "tdmsd.cli", "enum", "--kind", "trees", "--n", "16"), "OhCGGC@_??_@?@??_?G?@\n", 0),
    (("-c", _VIOLATED), None, 1),
], ids=["enum", "verify-violated"])
def test_closed_stdout_ends_quietly(args, first, expected):
    # the reader went away: no internal error, no traceback, no message at
    # exit, and a counterexample keeps its exit code
    line, code, err = _closed_after_first_line(*args)
    assert first is None or line == first
    assert line and code == expected and err == ""


def test_family_generate_above_the_code_cap_is_a_usage_error(capsys):
    from tdmsd.family import FAMILY_ORDER_CAP

    code, _ = run_cli("family", "generate", "--n-max", str(FAMILY_ORDER_CAP + 1))
    assert code == 2
    assert f"n_max <= {FAMILY_ORDER_CAP}" in capsys.readouterr().err


def test_family_test_above_the_cap_is_a_usage_error_at_once(capsys):
    from tdmsd.family import FAMILY_ORDER_CAP

    start = time.process_time()
    code, _ = run_cli("family", "test", "--input", "p32")
    assert time.process_time() - start < 0.5
    assert code == 2
    assert f"n_max <= {FAMILY_ORDER_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["p63", "p64"])
def test_family_test_beyond_graph6_orders_is_the_cap_usage_error(name, capsys):
    # membership is asked before the graph6 encoding, which stops at 62 vertices
    code, out = run_cli("family", "test", "--input", name)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == f"error: family generation supports n_max <= 24, got {name[1:]}\n"


def test_family_test_of_a_64_vertex_non_tree_is_a_precondition_error(capsys):
    code, _ = run_cli("family", "test", "--input", "k64")
    assert code == 3
    err = capsys.readouterr().err
    assert err == "precondition violated: family membership is defined for trees\n"


def test_family_test_output_of_p10():
    code, out = run_cli("family", "test", "--input", "p10")
    assert code == 0
    assert out == '{"graph6": "IhCGGC@?G", "in_family": true, "n": 10}\n'


@pytest.mark.parametrize("argv", [
    ("compute", "--input", "p6", "--invariant", "sd_t", "--cap", "0"),
    ("compute", "--input", "p6", "--invariant", "msd_t", "--cap", "-1"),
    ("verify", "--theorem", "msd-le-3", "--n-max", "4", "--jobs", "0"),
])
def test_counts_below_one_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2


def test_every_theorem_default_lies_in_its_order_range():
    for theorem, th in THEOREMS.items():
        assert th.lo <= th.default <= th.hi, theorem


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "universal-vertex", "--n-max", "9"),
    ("verify", "--theorem", "msd-le-3", "--n-max", "1"),
    ("verify", "--theorem", "tree-sd-eq-msd", "--n-max", "19"),
    ("enum", "--kind", "trees", "--n", "40"),
    ("compute", "--input", "p6", "--invariant", "gamma", "--cap", "2"),
    ("compute", "--input", "p6", "--invariant", "gamma_t", "--cap", "1"),
])
def test_out_of_range_orders_are_usage_errors(argv, monkeypatch, capsys):
    from tdmsd import verify as verify_mod

    def no_sweep(*args):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(verify_mod, "_map_graphs", no_sweep)
    monkeypatch.setattr(cli, "_read_graph", no_sweep)
    code, out = run_cli(*argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_verify_out_writes_the_summary(tmp_path):
    target = tmp_path / "summary.json"
    code, out = run_cli(
        "verify", "--theorem", "path-cycle-formulas", "--n-max", "5", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text()) == last_json(out)


def test_verify_unwritable_out_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--theorem", "path-cycle-formulas", "--n-max", "5", "--out", str(tmp_path))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "can't open" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--theorem", "msd-le-3", "--n-max", "99", "--out", "{out}"),
    ("verify", "--out", "{out}", "--theorem", "nope"),
])
def test_verify_usage_error_keeps_an_existing_out_file(argv, tmp_path):
    # only a verdict may replace the file's bytes or create the file
    target = tmp_path / "keep.json"
    target.write_text("kept\n")
    code, _ = _exit_and_stderr([a.format(out=target) for a in argv])
    assert code == 2
    assert target.read_text() == "kept\n"
    absent = tmp_path / "new.json"
    code, _ = _exit_and_stderr([a.format(out=absent) for a in argv])
    assert code == 2
    assert list(tmp_path.iterdir()) == [target]


def test_family_generate_usage_error_creates_no_directory(tmp_path):
    target = tmp_path / "d" / "sub"
    code, _ = run_cli("family", "generate", "--n-max", "25", "--out", str(target))
    assert code == 2
    assert not (tmp_path / "d").exists()


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


@pytest.fixture
def serial_pool(monkeypatch):
    """A stand-in for the forked workers that maps in-process and records the
    workers asked of it; no process is started.
    """
    from tdmsd import verify as verify_mod

    asked = []

    def serial_fork_map(fn, graphs, workers):
        assert 2 <= workers <= len(graphs)
        asked.append(workers)
        return [fn(g) for g in graphs]

    monkeypatch.setattr(verify_mod, "_fork_map", serial_fork_map)
    return asked


def test_verify_jobs_never_asks_for_more_workers_than_cores_or_graphs(monkeypatch, serial_pool):
    from tdmsd import verify as verify_mod

    asked = serial_pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    argv = ("verify", "--theorem", "tree-sd-eq-msd", "--n-max", "7", "--verbose")
    _, serial = run_cli(*argv)
    code, wide = run_cli(*argv, "--jobs", "100000")
    assert code == 0 and asked == [4]
    assert [json.loads(ln).get("graph6") for ln in serial.splitlines()[:-1]] == [
        json.loads(ln).get("graph6") for ln in wide.splitlines()[:-1]
    ]
    # three trees of order 5: one worker each
    verify_mod._map_graphs(verify_mod._check_tree_sd_eq_msd, verify_mod._trees(5, 5), 100000)
    assert asked == [4, 3]
    # one usable core: no worker at all
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_cli(*argv, "--jobs", "100000")[0] == 0
    assert asked == [4, 3]


def test_verify_unknown_theorem_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--theorem", "nonexistent")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nonexistent'" in err
    assert all(repr(theorem) in err for theorem in THEOREMS)


def test_verify_counterexample_exits_1(monkeypatch):
    # no real theorem fails, so stub a theorem whose check fails
    from tdmsd import verify as verify_mod

    def broken_check(g):
        return verify_mod.Verdict(False, "something", "otherwise")

    broken = verify_mod.Theorem(broken_check, lambda lo, hi: [(path(2),)], 2, 2, 2)
    monkeypatch.setitem(verify_mod.THEOREMS, "msd-le-3", broken)
    code, out = run_cli("verify", "--theorem", "msd-le-3")
    assert code == 1
    rec = last_json(out)
    assert not rec["ok"] and rec["failures"][0]["graph6"] == "A_"
    assert rec["graphs_checked"] == 1


@pytest.mark.parametrize("ok, vanish, expected", [
    (False, False, 1), (False, True, 1), (True, True, 2),
])
def test_verify_out_after_the_verdict(ok, vanish, expected, monkeypatch, tmp_path, capsys):
    # the summary is written once there is a verdict, a counterexample's too;
    # a write that fails then keeps exit 1 and is a usage error otherwise
    from tdmsd import verify as verify_mod

    folder = tmp_path / "d"
    folder.mkdir()
    target = folder / "summary.json"

    def check(g):
        if vanish:
            folder.rmdir()
        return verify_mod.Verdict(ok, "something", "otherwise")

    monkeypatch.setitem(verify_mod.THEOREMS, "msd-le-3",
                        verify_mod.Theorem(check, lambda lo, hi: [(path(2),)], 2, 2, 2))
    code, out = run_cli("verify", "--theorem", "msd-le-3", "--out", str(target))
    assert code == expected
    if vanish:
        assert "cannot write" in capsys.readouterr().err
    else:
        assert json.loads(target.read_text()) == last_json(out)


# graphs each theorem checks at its quick order, frozen from the sweeps as
# they ran before the theorem table
_QUICK_GRAPHS_CHECKED = {
    "msd-le-3": 142, "tree-sd-eq-msd": 93, "family-sd3": 93,
    "sd1-characterization": 93, "bc-minimum": 2, "strong-support": 93,
    "universal-vertex": 141, "path-cycle-formulas": 14, "lemma2-implies": 153,
    "lemma14-implies": 93,
}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_theorem_sweeps_its_orders_alike_at_any_jobs(theorem, monkeypatch, serial_pool):
    from tdmsd import verify as verify_mod

    n = _QUICK_N_MAX[theorem]
    serial = verify_mod.run_verification(theorem, n, 1, records=True)
    assert serial.orders_checked == (THEOREMS[theorem].lo, n)
    assert serial.graphs_checked == _QUICK_GRAPHS_CHECKED[theorem]
    assert serial.ok
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    wide = verify_mod.run_verification(theorem, n, 2, records=True)
    assert wide.records == serial.records and len(wide.records) == serial.graphs_checked
    # these two take less time than forking workers costs, so they never fork
    assert serial_pool == ([] if theorem in ("bc-minimum", "path-cycle-formulas") else [2])


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


def _printed_graphs(fmt, out):
    """Each graph in enum or fixtures output, as an --input literal."""
    if fmt == "graph6":
        return out.splitlines()
    lines, specs = out.splitlines(), []
    while lines:
        size = 1 + int(lines[0].split()[1])
        specs.append("\n".join(lines[:size]))
        lines = lines[size:]
    return specs


@pytest.mark.parametrize("fmt", ["graph6", "edge-list"])
@pytest.mark.parametrize("kind, n, stream", [
    ("trees", 7, enumerate_trees),
    ("connected", 5, enumerate_connected_graphs),
])
def test_enum_output_reads_back(kind, n, stream, fmt, read_back):
    code, out = run_cli("enum", "--kind", kind, "--n", str(n), "--format", fmt)
    assert code == 0
    assert [read_back(spec) for spec in _printed_graphs(fmt, out)] == list(stream(n))


@pytest.mark.parametrize("fmt", ["graph6", "edge-list"])
@pytest.mark.parametrize("name", ["gstar", "p7", "c9", "k4", "star6", "wheel5"])
def test_fixture_output_reads_back(name, fmt, read_back):
    code, out = run_cli("fixtures", "--name", name, "--format", fmt)
    assert code == 0
    [spec] = _printed_graphs(fmt, out)
    assert read_back(spec) == fixture_by_name(name)


def test_family_member_files_read_back(tmp_path, read_back):
    code, _ = run_cli("family", "generate", "--n-max", "14", "--out", str(tmp_path))
    assert code == 0
    members = generate_family(14)
    files = sorted(tmp_path.iterdir())
    assert len(files) == len(members)
    for member_file, member in zip(files, members):
        assert read_back(str(member_file)) == member.tree
        code, out = run_cli("family", "test", "--input", str(member_file))
        assert code == 0
        assert last_json(out) == {"n": member.n, "graph6": graph6_encode(member.tree),
                                  "in_family": True}


@pytest.mark.parametrize("theorem, n_max", [("msd-le-3", 5), ("tree-sd-eq-msd", 8)])
def test_verify_records_read_back(theorem, n_max, read_back):
    code, out = run_cli("verify", "--theorem", theorem, "--n-max", str(n_max), "--verbose")
    assert code == 0
    records = [json.loads(ln) for ln in out.splitlines()[:-1]]
    th = THEOREMS[theorem]
    stream = [g for batch in th.graphs(th.lo, n_max) for g in batch]
    assert [read_back(rec["graph6"]) for rec in records] == stream


def test_fixtures_listing_and_emit():
    code, out = run_cli("fixtures", "--list")
    assert code == 0
    assert out.splitlines() == ["gstar", "p<n>", "c<n>", "k<n>", "star<n>", "wheel<n>"]
    code, out = run_cli("fixtures", "--name", "gstar")
    assert code == 0
    assert out.splitlines()[0] == "12 15"


def test_console_script_runs():
    proc = _run_module("compute", "--input", "p4", "--invariant", "gamma")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip())["value"] == 2
