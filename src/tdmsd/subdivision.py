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
one BFS and one exact solve of g.  A subdivided graph H that this cover
still covers has a number of at most gamma(g), so it is settled without a
solve.  The cover is tested at H's subdivided edges, where alone H differs
from g.  A row asks only whether H's number exceeds gamma(g).  Any other H
gets its cover sets from g's, with its new paths wired in as the builders
wire them, and goes to domination's one solve with gamma(g) as its stop.
The solve's leaf-up walk settles H when its cover has at most gamma(g)
vertices or as many as its packing, and otherwise a search stops at the
first cover of at most gamma(g) vertices and is exact above it.  On a tree,
H is a tree too, and the walk is g's BFS order with H's new paths spliced
in, an order in which the walk's cover is minimum; on any other graph it is
H's own.  No search builds a Graph.  Every skip rests on a cover checked
against H, so the values stay exact.

A state lives for one caller's check of one graph, never globally: keying a
global cache by subdivided graphs would need canonical codes, which cost more
than the solves they save (and are factorial on symmetric graphs).  The sd
and msd searches of g may share one state: both start with the same row of
single subdivisions, subdivide_edges(g, (e,)) for each edge e, so the state
records how that common row ended, and the second search runs none of it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .domination import _closed_covers, _leaf_order, _min_cover, _total_covers, _walk
from .domination import gamma_t_value  # noqa: F401  perfbench's traced units wrap this binding
from .errors import Disconnected, EdgeNotPresent, TooLarge, TooSmall
from .graph import MAX_VERTICES, Edge, Graph, _wire, normalize_edge
from .graph import subdivide, subdivide_edges  # noqa: F401  perfbench's traced units wrap these bindings

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

    cover_sets is domination's _total_covers or _closed_covers, and sets
    is cover_sets(g).  order is domination's _leaf_order(sets), g's one
    BFS, which serves the connectivity check, the walk of g's solve and, on
    a tree, the rows' walks.  base is g's (total) domination number and
    cover one of its minimum (total) dominating sets as a vertex mask, both
    from one exact solve of sets; edges is g's edge list.  position is,
    on a tree, each vertex's index in order, and None on any other graph.
    row_one is how the row of single subdivisions ended: None before any
    search ran it, () if no edge raises the number, else ((e,), value) for
    the first edge that does.

    g must be connected with at least 2 vertices.
    """

    __slots__ = ("graph", "cover_sets", "sets", "order", "base", "cover", "edges",
                 "position", "row_one")

    def __init__(self, g: Graph, *, cover_sets=_total_covers) -> None:
        if g.n < 2:
            raise TooSmall(f"need n >= 2, got n={g.n}")
        sets = cover_sets(g)
        order = _leaf_order(sets)
        # each BFS tree has one root, the one pair with no layer above it
        if [above for _, above in order].count(0) > 1:
            raise Disconnected("subdivision invariants need a connected graph")
        self.graph, self.cover_sets, self.sets, self.order = g, cover_sets, sets, order
        self.edges = g.edges()
        self.row_one: tuple | None = None
        # g is connected with n >= 2, so it has no isolated vertex
        self.base, self.cover = _min_cover(sets, walked=_walk(sets, order))
        self.position = None
        if len(self.edges) == g.n - 1:
            self.position = [0] * g.n
            for i, (v, _) in enumerate(order):
                self.position[v] = i


def _state(g: Graph, memo: SearchState | None, min_n: int, cover_sets=_total_covers) -> SearchState:
    """memo, once checked to be a state of g with cover_sets, or else a new
    state of g."""
    if g.n < min_n:
        raise TooSmall(f"need n >= {min_n}, got n={g.n}")
    if memo is None:
        return SearchState(g, cover_sets=cover_sets)
    if memo.graph != g:
        raise ValueError("a SearchState serves the searches of one graph")
    if memo.cover_sets is not cover_sets:
        raise ValueError("a SearchState serves the searches of one kind of domination")
    return memo


def _spliced_walk(state: SearchState, covers: list[int], subset, t: int) -> tuple[int, int]:
    """domination's _walk of covers, the cover sets of the graph H with
    subset's edges subdivided t times as graph's _wire numbers them, in the
    state's order with H's new paths spliced in.  state.position must be
    set.

    Each new path goes right after its lower end, the end that comes first
    in the order, and runs from there to its upper end: each new vertex's
    mask above is its neighbour toward the upper end, and the lower end's
    is its new neighbour.  On a tree the lower end is the child, so every
    vertex still comes after its children, with its parent above it, and
    the cover is minimum.
    """
    order, position = state.order, state.position
    splices = []
    x = state.graph.n
    for u, v in subset:
        # the path u, x, ..., last, v, from the lower end up
        last = x + t - 1
        if position[u] < position[v]:
            steps = [(u, 1 << x), *[(y, 1 << y + 1) for y in range(x, last)], (last, 1 << v)]
            splices.append((position[u], steps))
        else:
            steps = [(v, 1 << last), *[(y, 1 << y - 1) for y in range(last, x, -1)], (x, 1 << u)]
            splices.append((position[v], steps))
        x = last + 1
    splices.sort()
    spliced = []
    start = 0
    for at, steps in splices:
        spliced += order[start:at]
        spliced += steps
        start = at + 1
    spliced += order[start:]
    return _walk(covers, spliced)


def _row(state: SearchState, subsets, t: int) -> tuple:
    """(subset, number) for the first subset whose graph raises the number,
    or () if none does.  At t = 1 that graph H has subset's edges each
    subdivided once, else subset's one edge subdivided t times.

    Each subset runs up to three steps.  H's vertex count is checked first,
    so a row over the vertex cap fails at its first subset, settled or not.
    Then the state's minimum cover C of the graph is tested against H at
    the subdivided edges; if C covers H, H's number is at most the base.
    Otherwise H's cover sets are the state's with H's new paths wired in
    (graph's _wire), and _min_cover solves them with the base as its stop,
    so a cover of at most the base vertices settles H below it.  On a tree
    it is handed H's walk in the state's order with the new paths spliced
    in (_spliced_walk), which is minimum, so no search runs; on any other
    graph it walks H in H's own leaf-up order.  No search builds H.

    The test decides exactly whether C covers H, for total and closed cover
    sets alike.  C holds old vertices only.  A new vertex's candidates are
    its path neighbours and, for closed sets, itself, so it is covered
    exactly when it is next to an end in C.  At t = 1 the new vertex is next
    to both ends, so each subdivided edge needs an end in C; at t = 2 each
    new vertex is next to one end, so each edge needs both; at t >= 3 a
    middle new vertex has no old neighbour, and C covers no H: an edge needs
    t of its two ends in C, which fails at the first edge.  An end w
    keeps its cover set of the graph less lost, the other ends of its
    subdivided edges, and gains new vertices, which are not in C; the cover
    relation is symmetric, so w is covered exactly when sets[w] & ~lost & C
    is not empty.  Every other old vertex keeps its cover set, which C
    meets because C covers the graph.
    """
    g, base, cover, sets = state.graph, state.base, state.cover, state.sets
    own = state.cover_sets is _closed_covers
    tree = state.position is not None
    for subset in subsets:
        n2 = g.n + len(subset) * t
        if n2 > MAX_VERTICES:
            raise TooLarge(f"subdivision would need {n2} vertices")
        for u, v in subset:
            if (cover >> u & 1) + (cover >> v & 1) < t:
                break
            # the other ends of the subdivided edges at u and at v
            lost_u = lost_v = 0
            for a, b in subset:
                lost_u |= (a == u) << b | (b == u) << a
                lost_v |= (a == v) << b | (b == v) << a
            if not (sets[u] & cover & ~lost_u and sets[v] & cover & ~lost_v):
                break
        else:
            continue
        covers = list(sets)
        _wire(covers, subset, t, own)
        walked = _spliced_walk(state, covers, subset, t) if tree else None
        after = _min_cover(covers, base, walked)[0]
        if after > base:
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
    msd <= 3 bound for connected graphs.  Every per-edge value
    (msd_gamma_t_edge) is at most 3 too: gamma_t(g) + 1 <= gamma_t(g with
    e subdivided 3 times) <= gamma_t(g) + 2 on every edge e of an
    isolate-free graph (lemma L3, proved in the README).
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
