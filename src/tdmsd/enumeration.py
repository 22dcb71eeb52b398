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

Connected graphs come out once each too, by McKay's canonical augmentation
(J. Algorithms 26, 1998).  Every connected graph G of order two or more has a
non-cut vertex, so G less its canonical deletion vertex, a canonically chosen
non-cut vertex of largest degree among the non-cut vertices, is connected,
and G arises from that graph's representative by adding a vertex joined to
some non-empty vertex set.  An extension is kept only when its new vertex
lies in the orbit of its canonical deletion vertex.  Cheap invariants decide
most extensions (degree, then sorted neighbour degrees, then the cell of the
equitable partition).  In a tie, one leaf of the code search below the new
vertex and below each tied vertex usually shows an automorphism carrying the
new vertex onto each of them, and then they all share its orbit, whichever of
them is the deletion vertex.  Only the other ties get a canonical labelling,
whose order picks the deletion vertex and whose automorphisms give its orbit,
as geng does (McKay and Piperno, J. Symbolic Comput. 60, 2014).  Neighbour
sets are tried in ascending order, and only the least set of each orbit under
the base's automorphisms is extended: an automorphism carrying one set to
another extends to an isomorphism of the two extensions, which are kept or
dropped alike.  So a kept graph comes from one base and one set only, and no
code is computed and no dedupe table kept.  Sets whose extension cannot give
the new vertex the largest non-cut degree are skipped untried, read off masks
of the base's non-cut vertices by degree.  Joined to a set S of two or more
vertices, the new vertex has degree |S|, and each non-cut vertex of the base
stays non-cut, its degree raised by one if it lies in S; so S is skipped when
a non-cut vertex has a degree above |S|, or of |S| and lies in S.  Joined to
one vertex x, the new vertex has degree 1 and every non-cut vertex other than
x stays non-cut, so {x} is skipped when one of them has degree 2 or more.
These masks are invariant under the base's automorphisms, so whole orbits are
skipped, before any is marked or built.

The stream of an order is each base's kept extensions, in the order of the
bases in the stream below it.  Each base is extended independently of the
others, so with jobs > 1 forked workers split the bases of the order asked
for by stride (the lower orders are generated serially), and the stream is
the same at any jobs.
"""

from __future__ import annotations

from functools import lru_cache

from .canonical import (
    automorphisms,
    canonical_labelling,
    equitable_partition,
    individualized_leaf,
)
from .canonical import canonical_code  # noqa: F401  perfbench's traced units wrap this binding
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


def _is_canonical_extension(g: Graph) -> bool:
    """Whether g's last vertex v lies in the orbit of g's canonical deletion
    vertex; g less v must be connected.

    The candidates are the non-cut vertices of largest degree among the
    non-cut vertices.  Of those, the ones with the largest sorted neighbour
    degrees are kept, then of these the ones in the latest cell of the
    equitable partition.  v is accepted once it is the only one left, and
    rejected once it is not among them.  Only ties past both invariants
    are labelled: the canonical deletion vertex is the tied vertex that comes
    first in the canonical order.
    """
    adj = g.adj
    v = g.n - 1
    degree = [a.bit_count() for a in adj]
    deg = degree[v]
    if any(d > deg and _is_non_cut(adj, w) for w, d in enumerate(degree)):
        return False

    def nbr_degrees(w: int) -> list[int]:
        return sorted([degree[u] for u in iter_bits(adj[w])])

    key = nbr_degrees(v)
    tied = []
    for w in range(v):
        if degree[w] == deg:
            other = nbr_degrees(w)
            if other >= key and _is_non_cut(adj, w):
                if other > key:
                    return False
                tied.append(w)
    if not tied:
        return True
    cells = equitable_partition(g)
    i = next(i for i, cell in enumerate(cells) if cell >> v & 1)
    later = sum(cells[i + 1 :])
    if any(later >> w & 1 for w in tied):
        return False
    tied = [w for w in tied if cells[i] >> w & 1]
    if not tied:
        return True
    # if an automorphism carries v onto each tied vertex, they all share v's
    # orbit, and so does the canonical deletion vertex, whichever of them it
    # is; one leaf below each vertex finds these automorphisms in almost
    # every tie
    bits = individualized_leaf(g, cells, v)
    if all(individualized_leaf(g, cells, w) == bits for w in tied):
        return True
    order, autos = canonical_labelling(g, cells)
    first = next(u for u in order if u == v or u in tied)
    reached = bytearray(1 << g.n)
    _mark_orbit(1 << first, autos, reached)
    return bool(reached[1 << v])


def _extensions(base: Graph) -> list[Graph]:
    """The extensions of base by one vertex that the generator keeps, in
    ascending order of the new vertex's neighbour set."""
    new = base.n
    autos = automorphisms(base)
    # the degree masks of the module docstring: a set S of two or more
    # vertices is skipped when a non-cut vertex of base has a degree above
    # |S| (floor is the largest), or of |S| (at[|S|]) and lies in S; a set
    # {x}, when a non-cut vertex other than x has a degree of 2 or more (wide)
    at = [0] * (new + 1)
    floor = 0
    for v, a in enumerate(base.adj):
        if _is_non_cut(base.adj, v):
            at[a.bit_count()] |= 1 << v
            floor = max(floor, a.bit_count())
    wide = sum(at[2:])
    reached = bytearray(1 << new)
    out = []
    for nbrs in range(1, 1 << new):
        size = nbrs.bit_count()
        if size == 1:
            if wide & ~nbrs:
                continue
        elif size < floor or at[size] & nbrs:
            continue
        if reached[nbrs]:
            continue
        _mark_orbit(nbrs, autos, reached)
        adj = [a | (nbrs >> v & 1) << new for v, a in enumerate(base.adj)]
        adj.append(nbrs)
        g = Graph(new + 1, adj)
        if _is_canonical_extension(g):
            out.append(g)
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
    """The connected graphs of order n: the kept extensions of each order-(n-1)
    representative, in the order of those representatives.

    Up to jobs.value forked workers split the bases by stride; the lower
    orders are generated serially.  Every call passes a _Jobs, so that all of
    them share one entry per order.
    """
    if n == 1:
        return (from_edge_list(1, []),)
    bases = _connected_reps(n - 1, _SERIAL)
    workers = usable_workers(jobs.value, len(bases))
    found = map(_extensions, bases) if workers <= 1 else fork_map(_extensions, bases, workers)
    return tuple(g for listed in found for g in listed)


def enumerate_connected_graphs(n: int, jobs: int = 1) -> tuple[Graph, ...]:
    """All connected graphs of order n up to isomorphism, one per class, the
    extensions of each graph of order n - 1 in the order of those graphs.

    If order n has not been generated yet, up to jobs forked workers generate
    it from order n - 1; the graphs and their order are the same at any jobs.
    """
    if not 2 <= n <= CONNECTED_ORDER_CAP:
        raise OutOfRange(
            f"connected enumeration supports 2 <= n <= {CONNECTED_ORDER_CAP}"
        )
    return _connected_reps(n, _Jobs(jobs))
