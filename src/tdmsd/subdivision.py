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
one exact solve of g, which walks g's leaf-up order: a tree labelled in
preorder is read off its labels, any other g is ordered by the solve
itself.  A subdivided graph H that this cover still covers has a number
of at most gamma(g), so it is settled without a solve.  The cover is
tested at H's subdivided edges, where alone H differs from g.  A row asks
only whether H's number exceeds gamma(g).  Any other H gets its cover sets
from g's, with its new paths wired in and numbered by graph's _wire, and
goes to domination's one solve with gamma(g) as its stop.  The solve's
leaf-up walk settles H when its cover has at most gamma(g) vertices or as
many as its packing, and otherwise a search stops at the first cover of at
most gamma(g) vertices and is exact above it.  On a tree with each vertex's
parent below it, as the tree generator labels it, H is a tree too, and the
solve walks g's order with _wire's paths spliced in (_splice), an order in
which the walk's cover is minimum; on any other graph, a tree in other
labels among them, it walks H's own, which on a tree is minimum too.  No
search builds a Graph.  Every skip rests on a cover checked against H, so
the values stay exact.

A state lives for one caller's check of one graph, never globally: keying a
global cache by subdivided graphs would need canonical codes, which cost more
than the solves they save (and are factorial on symmetric graphs).  The sd
and msd searches of g may share one state: both start with the same row of
single subdivisions, subdivide_edges(g, (e,)) for each edge e, so the state
records how that common row ended, and the second search runs none of it.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import NamedTuple

from .domination import _closed_covers, _min_cover, _total_covers
from .domination import gamma_t_value  # noqa: F401  perfbench's traced units wrap this binding
from .errors import Disconnected, EdgeNotPresent, TooLarge, TooSmall
from .graph import MAX_VERTICES, Edge, Graph, _wire, leaves_mask, normalize_edge
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

    sets is cover_sets(g), for domination's _total_covers or
    _closed_covers; each closed set holds its own vertex's bit, so sets
    also tells the kind.  When every vertex v >= 1 has exactly one
    neighbour below it in g.adj, as in the tree generator's preorder labels,
    g is a tree rooted at 0 with each vertex's parent below it, and order is
    the leaf-up walk's order n - 1, ..., 0, each with its parent as its mask
    above, with no BFS; it serves the walk of g's solve and the rows' spliced
    walks, and such a g is connected by construction.  On any other g, a
    tree in other labels among them, order is None, g must pass
    g.is_connected(), and g's solve walks the leaf-up order that
    domination's _min_cover finds itself.  base is g's (total) domination
    number and cover one of its minimum (total) dominating sets as a vertex
    mask, both from one exact solve of sets; edges is g's edge list.
    row_one is how the row of single subdivisions ended: None
    before any search ran it, () if no edge raises the number, else ((e,),
    value) for the first edge that does.

    any_witness lets a caller that reads only the value take any raising
    subset of a row as its witness: sd's row of edge pairs and msd's row at
    t = 2 then try the strong-support lemma's subsets first (_strong_pendants),
    and the other subsets in their usual order after them.  The values are
    the same either way; without it every witness is the first in
    lexicographic order, and the row of single subdivisions is that order
    under both.

    g must be connected with at least 2 vertices.
    """

    __slots__ = ("graph", "sets", "order", "base", "cover", "edges", "row_one", "any_witness")

    def __init__(self, g: Graph, *, cover_sets=_total_covers, any_witness: bool = False) -> None:
        n = g.n
        if n < 2:
            raise TooSmall(f"need n >= 2, got n={n}")
        sets = cover_sets(g)
        order = []
        for v in range(n - 1, 0, -1):
            above = g.adj[v] & ((1 << v) - 1)
            if above.bit_count() != 1:
                break
            order.append((v, above))
        else:
            # a tree rooted at 0 with each parent below its children, so
            # from the top label down each vertex comes after its children
            order.append((0, 0))
        if len(order) < n:
            if not g.is_connected():
                raise Disconnected("subdivision invariants need a connected graph")
            order = None
        self.graph, self.sets, self.order, self.edges = g, sets, order, g.edges()
        self.row_one: tuple | None = None
        self.any_witness = any_witness
        # g is connected with n >= 2, so it has no isolated vertex
        self.base, self.cover = _min_cover(sets, order=order)


def _state(g: Graph, memo: SearchState | None, min_n: int, cover_sets=_total_covers) -> SearchState:
    """memo, once checked to be a state of g with cover_sets, or else a new
    state of g.  The kinds differ exactly when vertex 0's own bit does."""
    if g.n < min_n:
        raise TooSmall(f"need n >= {min_n}, got n={g.n}")
    if memo is None:
        return SearchState(g, cover_sets=cover_sets)
    if memo.graph != g:
        raise ValueError("a SearchState serves the searches of one graph")
    if (memo.sets[0] ^ cover_sets(g)[0]) & 1:
        raise ValueError("a SearchState serves the searches of one kind of domination")
    return memo


def _splice(order, paths, t: int) -> list[tuple[int, int]]:
    """A copy of order, a SearchState's order, with the new paths spliced
    in: paths are graph's _wire's (u, v, x), each the path u, x, ...,
    last = x + t - 1, v.

    The state's graph is a tree with each vertex's parent below it, so on
    each edge (u, v), u < v, u is v's parent, and v stands at index
    n - 1 - v of the order.  That entry becomes v, last, ..., x, each
    vertex's mask above being its next, and x's being u; from the lowest
    v, the highest index, down, no entry still to be replaced moves.  The
    subdivided graph is a tree, every vertex still comes after its
    children, with its parent above it, and the walk's cover is minimum.
    """
    spliced = list(order)
    n = len(order)
    for u, v, x in sorted(paths, key=lambda path: path[1]):
        last = x + t - 1
        steps = [(v, 1 << last), *[(y, 1 << y - 1) for y in range(last, x, -1)], (x, 1 << u)]
        spliced[n - 1 - v : n - v] = steps
    return spliced


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
    so a cover of at most the base vertices settles H below it.  When the
    state has an order, _min_cover walks H in that order with the new paths
    spliced in (_splice), where its cover is minimum, so no search runs;
    on any other graph it walks H in H's own leaf-up order, which on a tree
    is minimum too.  No search builds H.

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
    g, base, cover, sets, order = state.graph, state.base, state.cover, state.sets, state.order
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
        paths = _wire(covers, subset, t)
        after = _min_cover(covers, base, None if order is None else _splice(order, paths, t))[0]
        if after > base:
            return subset, after
    return ()


def _row_one(state: SearchState) -> tuple:
    """state.row_one, running the row if no search has yet."""
    if state.row_one is None:
        state.row_one = _row(state, [(e,) for e in state.edges], 1)
    return state.row_one


def _strong_pendants(g: Graph) -> list[tuple[Edge, Edge]]:
    """The two pendant edges to the two lowest leaves of each strong
    support of g (a vertex next to two or more leaves), in support order.

    By the strong-support lemma (README), on an isolate-free g the number
    rises when both edges are subdivided once, and when the first alone is
    subdivided twice, for total and closed cover sets alike.
    """
    leaves = leaves_mask(g)
    pairs = []
    for s, nbrs in enumerate(g.adj):
        at = nbrs & leaves
        rest = at & (at - 1)
        if rest:
            first, second = (at ^ rest).bit_length() - 1, (rest & -rest).bit_length() - 1
            pairs.append((normalize_edge(s, first), normalize_edge(s, second)))
    return pairs


def _msd(state: SearchState, cap: int) -> SubdivisionResult:
    """msd's rows by count; under state.any_witness the row at t = 2 tries
    one pendant edge at each strong support before every edge."""
    # count-major: the first count at which any edge succeeds is the minimum
    # over edges, and the first edge to succeed at it is the lowest such edge
    for t in range(1, cap + 1):
        if t == 1:
            hit = _row_one(state)
        else:
            if t == 2:
                singles = [(e,) for e in state.edges]
            subsets = singles
            if t == 2 and state.any_witness:
                subsets = chain([(pair[0],) for pair in _strong_pendants(state.graph)], singles)
            hit = _row(state, subsets, t)
        if hit:
            subset, after = hit
            return SubdivisionResult(t, subset, (t,), state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def _sd(state: SearchState, cap: int | None) -> SubdivisionResult:
    """sd's rows by subset size; under state.any_witness the row of edge
    pairs tries one pendant pair at each strong support before every pair."""
    edges = state.edges
    limit = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, limit + 1):
        if k == 1:
            hit = _row_one(state)
        else:
            subsets = combinations(edges, k)
            if k == 2 and state.any_witness:
                subsets = chain(_strong_pendants(state.graph), subsets)
            hit = _row(state, subsets, 1)
        if hit:
            subset, after = hit
            return SubdivisionResult(k, subset, (1,) * k, state.base, after)
    return SubdivisionResult(None, (), (), state.base, None)


def msd_gamma_t_edge(g: Graph, e: Edge, cap: int = MSD_DEFAULT_CAP) -> SubdivisionResult:
    """Smallest t <= cap with gamma_t(g with e subdivided t times) > gamma_t(g)."""
    u, v = e = normalize_edge(*e)
    if not g.has_edge(u, v):
        raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    state = SearchState(g)
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
