"""The four subdivision invariants: per-edge and global multisubdivision
numbers, and subdivision numbers over simultaneous edge subsets.

Searches go strictly by increasing subdivision count / subset size, so the
reported value is the first point at which the recomputed (total) domination
number strictly increases.  The msd search is count-major: every edge at
t = 1, then every edge at t = 2, and so on, so its first hit is the minimum
and no incumbent is kept.  Each count or subset size is one row of
subdivided graphs.

Most subdivided graphs do not raise the number, and a search only needs to
know that they do not.  Each search of a graph g works from a
SearchState(g): gamma(g) (or gamma_t(g)) and one minimum cover of g, from
one exact solve of g.  A subdivided graph H that this cover still covers has
a number of at most gamma(g), so it is settled without a search.  Any other
H goes to domination's one solve with gamma(g) as its stop, since a row asks
only whether H's number exceeds it: H's leaf-up cover settles H when it has
at most gamma(g) vertices or as many as the packing of the same walk (on
every subdivided tree), and otherwise a search stops at the first cover of
at most gamma(g) vertices and is exact above it.  Every skip rests on a
cover checked against H, so the values stay exact.  Each search, of g or of
H, keeps the forced supports of the graph it solves, as gamma_value and
solve_gamma_t do; H's leaves are g's, since subdividing keeps every degree
and adds vertices of degree 2, so the state keeps g's leaf mask.

A state lives for one caller's check of one graph, never globally: keying a
global cache by subdivided graphs would need canonical codes, which cost more
than the solves they save (and are factorial on symmetric graphs).  The sd
and msd searches of g may share one state: both build their row of single
subdivisions as subdivide_edges(g, (e,)), so the state records how that
common row ended, and the second search builds none of it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .domination import _closed_covers, _min_cover, _total_covers
from .domination import gamma_t_value  # noqa: F401  perfbench's traced units wrap this binding
from .errors import Disconnected, EdgeNotPresent, TooSmall
from .graph import Edge, Graph, leaves_mask, normalize_edge, subdivide, subdivide_edges

MSD_DEFAULT_CAP = 3

# perfbench's freshness check reads this; there is no on-disk cache
_persistent_gamma_t = None


def __getattr__(name: str):
    # perfbench's traced units wrap subdivision.canonical_code; resolving it
    # on first access keeps canonical out of the modules tdmsd compute loads
    if name == "canonical_code":
        from .canonical import canonical_code

        globals()[name] = canonical_code
        return canonical_code
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SubdivisionResult(NamedTuple):
    """Outcome of one subdivision-number search.

    value is None when every count/subset up to the cap failed to increase
    the invariant (the search exceeded its cap, not an error).
    """

    value: int | None
    witness_edges: tuple[Edge, ...]
    witness_t: tuple[int, ...]
    base_value: int
    increased_value: int | None

    @property
    def exceeded(self) -> bool:
        return self.value is None


class SearchState:
    """What the searches of graph g learn, shared for as long as the caller
    keeps the state.

    base is g's (total) domination number and cover one of its minimum
    (total) dominating sets as a vertex mask, both from one exact solve of
    g; edges is its edge list, leaves its leaf mask (every subdivision of g
    has the same leaves), and cover_sets domination's _total_covers or
    _closed_covers.  row_one is how the row of single subdivisions ended:
    None before any search ran it, () if no edge raises the number, else
    ((e,), value) for the first edge that does.

    g must be connected with at least 2 vertices.
    """

    __slots__ = ("graph", "cover_sets", "base", "cover", "edges", "leaves", "row_one")

    def __init__(self, g: Graph, *, cover_sets=_total_covers) -> None:
        if g.n < 2:
            raise TooSmall(f"need n >= 2, got n={g.n}")
        if not g.is_connected():
            raise Disconnected("subdivision invariants need a connected graph")
        self.graph, self.cover_sets, self.edges = g, cover_sets, g.edges()
        self.leaves = leaves_mask(g)
        self.row_one: tuple | None = None
        # g is connected with n >= 2, so it has no isolated vertex
        self.base, self.cover = _min_cover(cover_sets(g), g.full_mask, leaves=self.leaves)


def _state(g: Graph, memo: SearchState | None, min_n: int, cover_sets=_total_covers) -> SearchState:
    """memo, once checked to be a state of g, or else a new state of g."""
    if g.n < min_n:
        raise TooSmall(f"need n >= {min_n}, got n={g.n}")
    if memo is None:
        return SearchState(g, cover_sets=cover_sets)
    if memo.graph != g:
        raise ValueError("a SearchState serves the searches of one graph")
    return memo


def _increase(state: SearchState, h: Graph) -> int | None:
    """The number of h if it exceeds the base, else None.

    h is a subdivision of state.graph.  The state's minimum cover of the
    graph, if it still covers h, shows that h's number is at most the base
    without a solve.  Otherwise h is solved with the base as the stop.
    """
    covers = state.cover_sets(h)
    full = h.full_mask
    covered = 0
    rest = state.cover
    while rest:
        low = rest & -rest
        covered |= covers[low.bit_length() - 1]
        rest ^= low
    if covered == full:
        return None
    value = _min_cover(covers, full, state.leaves, stop=state.base)[0]
    return value if value > state.base else None


def _row(state: SearchState, subsets, t: int) -> tuple:
    """(subset, number) for the first subset whose graph raises the number,
    or () if none does.  At t = 1 that graph is subdivide_edges(graph,
    subset), else subset's one edge subdivided t times.
    """
    g = state.graph
    # both builders are read from this module, where tracing and tests wrap them
    for subset in subsets:
        if t == 1:
            after = _increase(state, subdivide_edges(g, subset))
        else:
            after = _increase(state, subdivide(g, subset[0], t))
        if after is not None:
            return subset, after
    return ()


def _row_one(state: SearchState) -> tuple:
    """state.row_one, running the row if no search has yet."""
    if state.row_one is None:
        state.row_one = _row(state, [(e,) for e in state.edges], 1)
    return state.row_one


def _msd(state: SearchState, cap: int) -> SubdivisionResult:
    singles = [(e,) for e in state.edges]
    # count-major: the first count at which any edge succeeds is the minimum
    # over edges, and the first edge to succeed at it is the lowest such edge
    for t in range(1, cap + 1):
        hit = _row_one(state) if t == 1 else _row(state, singles, t)
        if hit:
            subset, after = hit
            return SubdivisionResult(t, subset, (t,), state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def _sd(state: SearchState, cap: int | None) -> SubdivisionResult:
    edges = state.edges
    limit = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, limit + 1):
        hit = _row_one(state) if k == 1 else _row(state, combinations(edges, k), 1)
        if hit:
            subset, after = hit
            return SubdivisionResult(k, subset, (1,) * k, state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def msd_gamma_t_edge(g: Graph, e: Edge, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Smallest t <= cap with gamma_t(g with e subdivided t times) > gamma_t(g)."""
    state = SearchState(g)
    u, v = e = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    for t in range(1, cap + 1):
        hit = _row(state, [(e,)], t)
        if hit:
            return SubdivisionResult(t, (e,), (t,), state.base, hit[1])
    return SubdivisionResult(None, (e,), (), state.base, None)


def msd_gamma_t(g: Graph, cap: int = MSD_DEFAULT_CAP, *,
                memo: SearchState | None = None) -> SubdivisionResult:
    """Total domination multisubdivision number: min of the per-edge values.

    Ties pick the lowest normalized edge.  The default cap is the paper's
    msd <= 3 bound for connected graphs.  The per-edge values
    (msd_gamma_t_edge) were at most 3 too on every edge of every connected
    graph of order <= 7 and every tree of order <= 12; no edge that needs
    more is known, but none is ruled out.
    memo, if given, is a SearchState(g); the search reads and extends it.
    """
    return _msd(_state(g, memo, 2), cap)


def sd_gamma_t(g: Graph, cap: int | None = None, *,
               memo: SearchState | None = None) -> SubdivisionResult:
    """Total domination subdivision number: smallest k such that some k edges,
    each subdivided once simultaneously, increase gamma_t.

    Subsets are tried in lexicographic order, so the witness is the first
    achieving subset.  cap=None searches up to all m edges.  memo is as for
    msd_gamma_t.
    """
    return _sd(_state(g, memo, 3), cap)


def msd_gamma(g: Graph, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Domination multisubdivision number."""
    return _msd(_state(g, None, 2, _closed_covers), cap)


def sd_gamma(g: Graph, cap: int | None = None) -> SubdivisionResult:
    """Domination subdivision number."""
    return _sd(_state(g, None, 3, _closed_covers), cap)
