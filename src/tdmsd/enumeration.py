"""Isomorphism-free streams of free trees and small connected graphs.

Free trees come from the constant-time successor of Wright, Richmond,
Odlyzko and McKay (SIAM J. Comput. 15(2), 1986) over level sequences: each
tree is rooted at its center, read as the depths of its vertices in preorder,
and the successor of Beyer and Hedetniemi (SIAM J. Comput. 9(4), 1980) steps
to the next rooted tree, skipping those rooted elsewhere.  Each free tree
comes out exactly once, so no canonical code is computed and no dedupe table
is kept.  The stream is in that generation order: it starts at the path and
ends at the star, and vertex i is the i-th vertex of the level sequence (the
same trees, labels and order as networkx.nonisomorphic_trees).

Connected graphs are generated the same way, by vertex extension: every
connected graph has a non-cut vertex, so taking a non-cut vertex v of largest
degree, G - v is connected and G arises from its representative by adding v
joined to some non-empty vertex set.  An extension is kept only when its new
vertex could be that v (no non-cut vertex has strictly larger degree), and
what is left is deduped by canonical code (canonical augmentation, McKay,
J. Algorithms 26, 1998).  Neighbour sets are tried in ascending order, and
only the least set of each orbit under the base's automorphisms is extended:
an automorphism carrying one set to another extends to an isomorphism of the
two extensions, which pass or fail the non-cut test alike.  The first
extension of each class is thus never skipped, and the stream is the same as
without the pruning.  A set of two or more neighbours smaller than the base's
largest non-cut degree is skipped untried: each non-cut vertex of the base
stays non-cut in such an extension, its degree no lower, so the new vertex
cannot have the largest non-cut degree.

Each base is extended independently of the others, so with jobs > 1 forked
workers split the bases of the order asked for by stride (the lower orders
are generated serially); the first extension of each code in base order is
kept either way, so the stream is the same at any jobs.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .canonical import automorphisms, canonical_code
from .errors import OutOfRange
from .graph import Graph, from_edge_list, iter_bits
from .workers import fork_map, usable_workers

TREE_ORDER_CAP = 18
CONNECTED_ORDER_CAP = 7


# -- free trees --------------------------------------------------------------

def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a level sequence, None after the last.

    p is the position to step down; by default the last vertex deeper than 1.
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    out = seq[:]
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree (levels lowered by one) and the rest of the tree."""
    m = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    return [x - 1 for x in seq[1:m]], [0] + seq[m:]


def _next_free(seq: list[int]) -> list[int]:
    """seq if WROM keeps it as a free tree, else the next sequence it keeps.

    A sequence is kept when the root's first subtree is lower than the rest of
    the tree, or as high and no larger (by size, then lexicographically); that
    roots every tree at its center, once.
    """
    left, rest = _split(seq)
    lh, rh = max(left), max(rest)
    if rh > lh or (rh == lh and (len(left), left) <= (len(rest), rest)):
        return seq
    p = len(left)
    out = _next_rooted(seq, p)
    if seq[p] > 2:
        h = max(_split(out)[0])
        out[-(h + 1):] = range(1, h + 2)
    return out


@lru_cache(maxsize=None)
def _tree_reps(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (from_edge_list(1, []),)
    # trees of one order share their equal adjacency masks, which keeps the
    # cached tuples smaller than one fresh int per vertex and tree
    masks: dict[int, int] = {}
    trees = []
    # the path rooted at its center
    seq: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while seq is not None:
        seq = _next_free(seq)
        adj = [0] * n
        ancestors: list[int] = []  # ancestors[d] is the latest vertex at depth d
        for v, depth in enumerate(seq):
            if depth:
                del ancestors[depth:]
                u = ancestors[-1]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            ancestors.append(v)
        trees.append(Graph(n, [masks.setdefault(a, a) for a in adj]))
        seq = _next_rooted(seq)
    return tuple(trees)


def enumerate_trees(n: int) -> tuple[Graph, ...]:
    """All free trees of order n, one per isomorphism class, path first, star last."""
    if not 1 <= n <= TREE_ORDER_CAP:
        raise OutOfRange(f"tree enumeration supports 1 <= n <= {TREE_ORDER_CAP}")
    return _tree_reps(n)


# -- connected graphs --------------------------------------------------------

def _is_non_cut(adj: list[int], v: int) -> bool:
    """Whether the graph stays connected once vertex v is removed."""
    rest = ((1 << len(adj)) - 1) & ~(1 << v)
    seen = frontier = rest & -rest
    while frontier:
        nxt = 0
        for w in iter_bits(frontier):
            nxt |= adj[w]
        frontier = nxt & rest & ~seen
        seen |= frontier
    return seen == rest


def _mark_orbit(mask: int, autos: list[list[int]], reached: bytearray) -> None:
    """Mark every image of the vertex set mask under the group autos generate."""
    reached[mask] = 1
    stack = [mask]
    while stack:
        m = stack.pop()
        for image in autos:
            out = 0
            for v in iter_bits(m):
                out |= 1 << image[v]
            if not reached[out]:
                reached[out] = 1
                stack.append(out)


def _extensions(base: Graph, seen: set[bytes]) -> list[tuple[bytes, Graph]]:
    """The extensions of base by one vertex that the generator keeps, each with
    its code, in generation order; a code already in seen is skipped, and each
    code listed is added to it."""
    new = base.n
    autos = automorphisms(base)
    # joined to two or more vertices, the new vertex leaves every non-cut
    # vertex of base non-cut, its degree no lower, so such a set smaller than
    # this floor fails the non-cut test below, and so does its orbit
    floor = max((a.bit_count() for v, a in enumerate(base.adj) if _is_non_cut(base.adj, v)),
                default=0)
    reached = bytearray(1 << new)
    out = []
    for nbrs in range(1, 1 << new):
        deg = nbrs.bit_count()
        if reached[nbrs] or 1 < deg < floor:
            continue
        _mark_orbit(nbrs, autos, reached)
        adj = [a | (nbrs >> v & 1) << new for v, a in enumerate(base.adj)]
        adj.append(nbrs)
        # keep only extensions whose new vertex is a non-cut vertex of
        # largest degree among the non-cut vertices
        if any(adj[v].bit_count() > deg and _is_non_cut(adj, v) for v in range(new)):
            continue
        g = Graph(new + 1, adj)
        code = canonical_code(g)
        if code not in seen:
            seen.add(code)
            out.append((code, g))
    return out


class _Jobs:
    """The --jobs value an order is generated with.  Every instance equals
    every other, so that _connected_reps caches each order once: its graphs
    are the same however many workers generated them."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Jobs)

    def __hash__(self) -> int:
        return 0


_SERIAL = _Jobs(1)


@lru_cache(maxsize=None)
def _connected_reps(n: int, jobs: _Jobs) -> tuple[Graph, ...]:
    """The connected graphs of order n by ascending code: of the extensions of
    the order-(n-1) representatives, the first of each code in base order.

    Up to jobs.value forked workers split the bases by stride, each skipping
    the codes it has listed already; the lower orders are generated serially.
    Every call passes a _Jobs, so that all of them share one entry per order.
    """
    if n == 1:
        return (from_edge_list(1, []),)
    bases = _connected_reps(n - 1, _SERIAL)
    workers = usable_workers(jobs.value, len(bases))
    extend = partial(_extensions, seen=set())
    found = map(extend, bases) if workers <= 1 else fork_map(extend, bases, workers)
    reps: dict[bytes, Graph] = {}
    for listed in found:
        for code, g in listed:
            reps.setdefault(code, g)
    return tuple(reps[code] for code in sorted(reps))


def enumerate_connected_graphs(n: int, jobs: int = 1) -> tuple[Graph, ...]:
    """All connected graphs of order n up to isomorphism, by ascending code.

    If order n has not been generated yet, up to jobs forked workers generate
    it from order n - 1; the graphs and their order are the same at any jobs.
    """
    if not 2 <= n <= CONNECTED_ORDER_CAP:
        raise OutOfRange(
            f"connected enumeration supports 2 <= n <= {CONNECTED_ORDER_CAP}"
        )
    return _connected_reps(n, _Jobs(jobs))
