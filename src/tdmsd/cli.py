"""Command-line surface: compute invariants, run theorem sweeps, generate
and test the tree family, enumerate graphs, and emit fixtures.

Exit codes: 0 success, 1 theorem violated (a counterexample was found and
must never be swallowed), 2 usage or parse error, 3 precondition violation,
4 internal error (an exception no command expects; one "internal error:" line
on stderr, no traceback).  A stdout its reader closed ends the command
quietly with 0, or 1 for a counterexample.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .domination import gamma, gamma_t
from .errors import GraphError, MalformedInput, OutOfRange, UnknownFixture, UnknownTheorem
from .fixtures import FIXTURE_NAMES, fixture_by_name
from .graph import Graph, _fields, _lines, format_edge_list, inner_edges, parse_edge_list
from .graph6 import graph6_decode, graph6_encode
from .subdivision import msd_gamma, msd_gamma_t, sd_gamma, sd_gamma_t

# Only compute's dependencies are imported here.  Each other command imports
# what it runs, so that `tdmsd compute` loads no sweep, family or enumeration
# code.

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
# the bytes an --input file may hold; K64's edge list takes 11,474
_MAX_INPUT = 1 << 20


def _read_graph(spec: str) -> Graph:
    """Accept a file path (its UTF-8 bytes, newlines untranslated), a fixture
    name, or literal text; text whose first line holds ASCII whitespace (the
    "n m" header) is an edge list, other text one graph6 line."""
    text = None
    if os.path.exists(spec):
        try:
            with open(spec, "rb") as f:
                data = f.read(_MAX_INPUT + 1)
            if len(data) > _MAX_INPUT:
                raise MalformedInput(f"{spec}: larger than {_MAX_INPUT} bytes")
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{spec}: not UTF-8 text ({exc.reason})") from None
        except OSError as exc:
            raise MalformedInput(f"{spec}: cannot read ({exc.strerror})") from None
    if text is None:
        # a fixture name with a bad parameter keeps its own message
        try:
            return fixture_by_name(spec)
        except UnknownFixture:
            pass
        text = spec
    lines = _lines(text)
    if not lines:
        raise MalformedInput("empty graph input")
    if len(_fields(lines[0])) > 1:
        return parse_edge_list(text)
    g = graph6_decode(lines[0])
    if len(lines) > 1:
        raise MalformedInput(f"unexpected trailing line {lines[1]!r}")
    return g


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _can_write(path: Path) -> bool:
    """Whether path is a file that can be written, checked without opening
    it, so that a usage error leaves no new file and no open handle behind."""
    return not path.is_dir() and path.parent.is_dir() and os.access(
        path if path.exists() else path.parent, os.W_OK)


def _writable_file(text: str) -> str:
    if not _can_write(Path(text)):
        raise argparse.ArgumentTypeError(f"can't open '{text}': not a writable file")
    return text


def _theorem_id(text: str) -> str:
    from .verify import THEOREMS

    if text not in THEOREMS:
        valid = ", ".join(map(repr, sorted(THEOREMS)))
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {valid})")
    return text


def _emit(obj, out) -> None:
    print(json.dumps(obj, sort_keys=True), file=out)


def _drop(out) -> None:
    """Point out, whose reader closed it, at devnull, so that no later
    write and no flush at exit fails on it again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, out.fileno())
    os.close(devnull)


def _graph_json(fmt: str, g: Graph) -> str:
    return graph6_encode(g) if fmt == "graph6" else format_edge_list(g).rstrip("\n")


def _cmd_compute(args, out) -> int:
    inv = args.invariant
    if args.cap is not None and inv in ("gamma", "gamma_t"):
        raise MalformedInput(f"--cap applies to sd, msd, sd_t and msd_t, not to {inv}")
    g = _read_graph(args.input)
    if inv in ("gamma", "gamma_t"):
        cert = gamma(g) if inv == "gamma" else gamma_t(g)
        _emit({
            "invariant": inv,
            "value": cert.value,
            "witness": sorted(cert.witness),
            "base_value": None,
        }, out)
        return EXIT_OK
    fns = {
        "sd": sd_gamma,
        "sd_t": sd_gamma_t,
        "msd": msd_gamma,
        "msd_t": msd_gamma_t,
    }
    result = fns[inv](g) if args.cap is None else fns[inv](g, args.cap)
    _emit({
        "invariant": inv,
        "value": result.value,
        "witness": {
            "edges": [list(e) for e in result.witness_edges],
            "t": list(result.witness_t),
        },
        "base_value": result.base_value,
        "increased_value": result.increased_value,
        "exceeded_cap": result.exceeded,
    }, out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .verify import run_verification

    report = run_verification(args.theorem, n_max=args.n_max, jobs=args.jobs,
                              records=args.verbose)
    summary = {
        "theorem": report.theorem_id,
        "orders_checked": list(report.orders_checked),
        "graphs_checked": report.graphs_checked,
        "failures": [
            {"graph6": r.graph6, "expected": r.expected, "actual": r.actual}
            for r in report.failures
        ],
        "elapsed_seconds": round(report.elapsed, 3),
        "ok": report.ok,
    }
    code = EXIT_OK if report.ok else EXIT_VIOLATED
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(summary, sort_keys=True) + "\n", encoding="utf-8")
        except OSError as exc:
            # a counterexample keeps its exit code
            print(f"error: {args.out}: cannot write ({exc.strerror})", file=sys.stderr)
            code = code or EXIT_USAGE
    try:
        if args.verbose:
            for rec in report.records:
                _emit(rec._asdict(), out)
        _emit(summary, out)
        out.flush()
    except BrokenPipeError:
        # a closed stdout keeps the verdict's exit code too
        _drop(out)
    return code


def _cmd_family(args, out) -> int:
    from .family import generate_family, is_in_family

    if args.family_cmd == "generate":
        # generated first, so that a usage error creates no directory
        members = generate_family(args.n_max)
        if args.out:
            directory = Path(args.out)
            try:
                directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise MalformedInput(f"{args.out}: cannot create directory ({exc.strerror})") from None
            targets = [directory / f"member_{i:03d}_n{member.n}.txt"
                       for i, member in enumerate(members)]
            # every path checked first, so that a usage error writes no member
            for target in targets:
                if not _can_write(target):
                    raise MalformedInput(f"{target}: cannot write (not a writable file)")
            for target, member in zip(targets, members):
                body = format_edge_list(member.tree) + f"status: {member.status}\n"
                try:
                    target.write_text(body, encoding="utf-8")
                except OSError as exc:
                    raise MalformedInput(f"{target}: cannot write ({exc.strerror})") from None
        for member in members:
            _emit({
                "n": member.n,
                "graph6": graph6_encode(member.tree),
                "status": member.status,
            }, out)
        _emit({"members": len(members), "n_max": args.n_max}, out)
        return EXIT_OK
    g = _read_graph(args.input)
    # asked first, so that its cap and tree errors come before graph6's order cap
    in_family = is_in_family(g)
    _emit({"n": g.n, "graph6": graph6_encode(g), "in_family": in_family}, out)
    return EXIT_OK


def _cmd_characterize(args, out) -> int:
    from .characterization import inner_edge_condition, leaf_condition, predicts_sd_one

    g = _read_graph(args.input)
    leaf = leaf_condition(g)
    inner = [
        {"edge": list(e), "holds": inner_edge_condition(g, e).holds}
        for e in inner_edges(g)
    ]
    _emit({
        "graph6": graph6_encode(g),
        "leaf_in_no_minimum_set": leaf,
        "inner_edges": inner,
        "predicts_sd_one": predicts_sd_one(g),
        "sd_gamma_t": sd_gamma_t(g).value,
    }, out)
    return EXIT_OK


def _cmd_enum(args, out) -> int:
    from .enumeration import enumerate_connected_graphs, enumerate_trees

    stream = (
        enumerate_trees(args.n)
        if args.kind == "trees"
        else enumerate_connected_graphs(args.n)
    )
    for g in stream:
        print(_graph_json(args.format, g), file=out)
    return EXIT_OK


def _cmd_fixtures(args, out) -> int:
    if args.list:
        for name in FIXTURE_NAMES:
            print(name, file=out)
        return EXIT_OK
    if not args.name:
        raise MalformedInput("fixtures needs --name or --list")
    g = fixture_by_name(args.name)
    print(_graph_json(args.format, g), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdmsd",
        description="Exact (total) domination subdivision invariants and theorem sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute one invariant of one graph")
    p.add_argument("--input", required=True, help="file path, graph6 literal, or fixture name")
    p.add_argument("--invariant", required=True,
                   choices=["gamma", "gamma_t", "sd", "msd", "sd_t", "msd_t"])
    p.add_argument("--cap", type=_positive_int, default=None)

    p = sub.add_parser("verify", help="run one theorem sweep")
    p.add_argument("--theorem", required=True, type=_theorem_id, help="a theorem id")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--verbose", action="store_true")
    # checked here, so that an unwritable path is a usage error before the
    # sweep; written only once there is a verdict
    p.add_argument("--out", type=_writable_file, default=None,
                   help="also write the summary JSON here")

    p = sub.add_parser("family", help="generate family members or test membership")
    fam = p.add_subparsers(dest="family_cmd", required=True)
    gen = fam.add_parser("generate")
    gen.add_argument("--n-max", type=int, default=14)
    gen.add_argument("--out", default=None, help="directory for edge-list member files")
    tst = fam.add_parser("test")
    tst.add_argument("--input", required=True)

    p = sub.add_parser("characterize", help="report the fired branch per tree")
    p.add_argument("--input", required=True)

    p = sub.add_parser("enum", help="emit non-isomorphic graphs, one per line")
    p.add_argument("--kind", choices=["trees", "connected"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["graph6", "edge-list"], default="graph6")

    p = sub.add_parser("fixtures", help="emit named fixture graphs")
    p.add_argument("--name", default=None)
    p.add_argument("--list", action="store_true")
    p.add_argument("--format", choices=["graph6", "edge-list"], default="edge-list")
    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "family": _cmd_family,
    "characterize": _cmd_characterize,
    "enum": _cmd_enum,
    "fixtures": _cmd_fixtures,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](args, out)
        out.flush()
    except BrokenPipeError:
        # out is the one pipe this process writes (verify's workers write
        # theirs in their own processes), and its reader is gone
        _drop(out)
        return EXIT_OK
    except (MalformedInput, OutOfRange, UnknownTheorem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
