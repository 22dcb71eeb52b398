"""Named small graphs used by the tests and the CLI."""

from __future__ import annotations

import re

from .errors import MalformedInput, TooSmall, UnknownFixture
from .graph import MAX_VERTICES, Graph, from_edge_list


def path(n: int) -> Graph:
    if n < 1:
        raise TooSmall("path needs n >= 1")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise TooSmall("cycle needs n >= 3")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise TooSmall("complete graph needs n >= 1")
    return from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    """K_{1,n-1} on n vertices; the center is vertex 0."""
    if n < 2:
        raise TooSmall("star needs n >= 2")
    return from_edge_list(n, [(0, i) for i in range(1, n)])


def wheel(rim: int) -> Graph:
    """Hub (vertex 0) joined to every vertex of a rim cycle C_rim."""
    if rim < 3:
        raise TooSmall("wheel needs rim >= 3")
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i % rim + 1) for i in range(1, rim + 1)]
    return from_edge_list(rim + 1, edges)


# Two triangles {0,1,2} and {3,4,5} joined by three paths of length 3,
# each path with two internal vertices.
GSTAR_EDGES = [
    (0, 1), (0, 2), (1, 2),
    (3, 4), (3, 5), (4, 5),
    (0, 6), (6, 7), (7, 3),
    (1, 8), (8, 9), (9, 4),
    (2, 10), (10, 11), (11, 5),
]


def gstar() -> Graph:
    return from_edge_list(12, GSTAR_EDGES)


# builder, least parameter, and vertices beyond the parameter
_PARAMETRIC = {
    "p": (path, 1, 0),
    "c": (cycle, 3, 0),
    "k": (complete, 1, 0),
    "star": (star, 2, 0),
    "wheel": (wheel, 3, 1),
}


def fixture_by_name(name: str) -> Graph:
    """Resolve names like gstar, p7, c9, k4, star6, wheel5."""
    name = name.strip().lower()
    if name == "gstar":
        return gstar()
    m = re.fullmatch(r"([a-z]+)([0-9]+)", name)
    if m and m.group(1) in _PARAMETRIC:
        builder, lo, extra = _PARAMETRIC[m.group(1)]
        digits = m.group(2).lstrip("0") or "0"
        # longer than the cap's digits, it is above the cap; int() of
        # thousands of digits would raise
        k = int(digits) if len(digits) <= len(str(MAX_VERTICES)) else MAX_VERTICES + 1
        if k < lo:
            raise MalformedInput(f"{name}: parameter below minimum {lo}")
        # checked before building, since the edge list of k<huge> alone would not fit
        if k + extra > MAX_VERTICES:
            raise MalformedInput(f"{name}: parameter above the {MAX_VERTICES}-vertex cap")
        return builder(k)
    raise UnknownFixture(f"unknown fixture {name!r}")


FIXTURE_NAMES = ("gstar", *(f"{prefix}<n>" for prefix in _PARAMETRIC))
