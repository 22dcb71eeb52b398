"""Isomorphism-free streams of free trees and small connected graphs.

Free trees come from the constant-time successor of Wright, Richmond,
Odlyzko and McKay (SIAM J. Comput. 15(2), 1986) over level sequences: each
tree is rooted at its center, read as the depths of its vertices in preorder,
and the successor of Beyer and Hedetniemi (SIAM J. Comput. 9(4), 1980) steps
to the next rooted tree, skipping those rooted elsewhere.  Each free tree
comes out exactly once, so no canonical code is computed and no dedupe table
is kept.  The stream is in that generation order: it starts at the path and
ends at the star, and vertex i is the i-th vertex of the level sequence (the
same trees, labels and order as networkx.nonisomorphic_trees).  Both
successors rewrite only a suffix of the sequence, on average about two
vertices (2.2 at order 14, 1.9 at 18), so each tree is built by editing the
one before it: one parent array and one list of adjacency masks are kept
across an order's stream, each vertex of the changed suffix is moved to its
new parent, and only the masks that changed are rewritten.

Connected graphs come out once each too, by McKay's canonical augmentation
(J. Algorithms 26, 1998).  Every connected graph G of order two or more has a
non-cut vertex, so G less its canonical deletion vertex, a canonically chosen
non-cut vertex of largest degree among the non-cut vertices, is connected,
and G arises from that graph's representative by adding a vertex joined to
some non-empty vertex set.  An extension is kept only when its new vertex
lies in the orbit of its canonical deletion vertex.  Cheap invariants decide
most extensions (degree, then sorted neighbour degrees, then the cell of the
equitable partition).  A tie after the first two is settled at once when each
tied vertex is a twin of the new vertex, with the same neighbours but each
other: swapping the two is an automorphism, so all of them share the new
vertex's orbit, whichever of them is the deletion vertex.  In another tie,
one leaf of the code search below the new vertex and below each tied vertex
usually shows an automorphism carrying the new vertex onto each of them, to
the same end.  Only the other ties get a canonical labelling, whose order
picks the deletion vertex and whose automorphisms give its orbit, as geng
does (McKay and Piperno, J. Symbolic Comput. 60, 2014).  Neighbour
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
skipped, before any is marked or built.  The test of an extension reads
non-cut status off the base in the same way, and walks the graph only for
the base's cut vertices and the new vertex's only neighbour.

The stream of an order is each base's kept extensions, in the order of the
bases in the stream below it.  Each base is extended independently of the
others, so ``extension_batches`` hands out one lazy batch per base, and
whichever process iterates a batch extends its base.  Each process caches the
extensions of the bases it extended, so the sweeps run in one process extend
each base once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .canonical import (
    automorphisms,
    canonical_labelling,
    equitable_partition,
    individualized_leaf,
)
from .canonical import canonical_code  # noqa: F401  perfbench's traced units wrap this binding
from .errors import OutOfRange
from .graph import Graph, from_edge_list, iter_bits, reach_within

TREE_ORDER_CAP = 18
CONNECTED_ORDER_CAP = 7


# -- free trees --------------------------------------------------------------

def _next_rooted(seq: list[int], p: int | None = None) -> int:
    """Step seq in place to its Beyer-Hedetniemi successor; the first
    position changed, or 0 after the last sequence, which stays as it is.

    p is the position to step down; by default the last vertex deeper than 1.
    """
    if p is None:
        p = len(seq) - 1
        while seq[p] == 1:
            p -= 1
    if p == 0:
        return 0
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    for i in range(p, len(seq)):
        seq[i] = seq[i - p + q]
    return p


def _second_child(seq: list[int]) -> int:
    """The position of the root's second child, len(seq) if it has one child."""
    try:
        return seq.index(1, 2)
    except ValueError:
        return len(seq)


def _next_free(seq: list[int]) -> int:
    """Step seq in place to the first sequence from it that WROM keeps as a
    free tree; the first position changed, len(seq) if seq itself is kept.

    A sequence is kept when the root's first subtree, at positions 1..m-1
    up to the root's second child m, is lower than the rest of the tree, or
    as high and no larger (by size, then lexicographically); that roots
    every tree at its center, once.  Heights and sizes are read off slices,
    and the two halves are listed only when both tie.
    """
    n = len(seq)
    m = _second_child(seq)
    lh, rh = max(seq[1:m]) - 1, max(seq[m:], default=0)
    if rh > lh or rh == lh and (
        2 * m < n + 2
        or 2 * m == n + 2 and [x - 1 for x in seq[1:m]] <= [0, *seq[m:]]
    ):
        return n
    p = m - 1
    deep = seq[p] > 2
    _next_rooted(seq, p)
    if deep:
        h = max(seq[1:_second_child(seq)]) - 1
        seq[-(h + 1):] = range(1, h + 2)
        return min(p, n - h - 1)
    return p


@lru_cache(maxsize=None)
def _tree_reps(n: int) -> tuple[Graph, ...]:
    """The trees of order n, each edited from the one before it: only the
    vertices from the first position the successor changed get new parents.
    """
    if n == 1:
        return (from_edge_list(1, []),)
    # trees of one order share their equal adjacency masks, which keeps the
    # cached tuples smaller than one fresh int per vertex and tree; a mask
    # an edit leaves alone is already shared
    masks: dict[int, int] = {}
    trees = []
    # the star rooted at 0, whose parents are all 0, is edited into the
    # first tree, the path rooted at its center, from vertex 1 on
    parent = [0] * n
    adj = [(1 << n) - 2] + [1] * (n - 1)
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    first = 1
    while first:
        first = min(first, _next_free(seq))
        edited = 0
        for v in range(first, n):
            # the parent is the latest vertex before v one level up
            depth = seq[v]
            u = v - 1
            while seq[u] >= depth:
                u = parent[u]
            old = parent[v]
            if u != old:
                parent[v] = u
                bit = 1 << v
                adj[old] ^= bit
                adj[u] |= bit
                adj[v] ^= (1 << old) | (1 << u)
                edited |= bit | (1 << old) | (1 << u)
        while edited:
            w = edited.bit_length() - 1
            adj[w] = masks.setdefault(adj[w], adj[w])
            edited ^= 1 << w
        trees.append(Graph(n, adj))
        first = _next_rooted(seq)
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
    return reach_within(adj, rest & -rest, rest) == rest


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


def _is_canonical_extension(g: Graph, non_cut: int) -> bool:
    """Whether g's last vertex v lies in the orbit of g's canonical deletion
    vertex; g less v must be connected, and non_cut is the mask of the
    non-cut vertices of g less v.

    The candidates are the non-cut vertices of largest degree among the
    non-cut vertices.  Of those, the ones with the largest sorted neighbour
    degrees are kept.  v is accepted once it is the only one left, or once
    each other one is a twin of v, and rejected once it is not among them.
    Otherwise the ones in the latest cell of the equitable partition are
    kept, and only ties past all three invariants are labelled: the
    canonical deletion vertex is the tied vertex that comes first in the
    canonical order.
    """
    adj = g.adj
    v = g.n - 1
    degree = [a.bit_count() for a in adj]
    deg = degree[v]
    # a non-cut vertex of g less v stays non-cut in g unless it is v's only
    # neighbour; only the others need the walk
    known = non_cut if deg > 1 else non_cut & ~adj[v]

    def is_non_cut(w: int) -> bool:
        return bool(known >> w & 1) or _is_non_cut(adj, w)

    if any(d > deg and is_non_cut(w) for w, d in enumerate(degree)):
        return False

    def nbr_degrees(w: int) -> list[int]:
        return sorted([degree[u] for u in iter_bits(adj[w])])

    key = nbr_degrees(v)
    tied = []
    for w in range(v):
        if degree[w] == deg:
            other = nbr_degrees(w)
            if other >= key and is_non_cut(w):
                if other > key:
                    return False
                tied.append(w)
    # a twin w of v, with the same neighbours but each other, is swapped
    # with v by an automorphism; when every tied vertex is one, all of them
    # share v's orbit, whichever of them is the deletion vertex
    if all(adj[w] & ~(1 << v) == adj[v] & ~(1 << w) for w in tied):
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


@lru_cache(maxsize=None)
def _extensions(base: Graph) -> tuple[Graph, ...]:
    """The extensions of base by one vertex that the generator keeps, in
    ascending order of the new vertex's neighbour set; cached per base."""
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
    non_cut = sum(at)
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
        if _is_canonical_extension(g, non_cut):
            out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def _connected_reps(n: int) -> tuple[Graph, ...]:
    """The connected graphs of order n: the kept extensions of each order-(n-1)
    representative, in the order of those representatives."""
    if n == 1:
        return (from_edge_list(1, []),)
    return tuple(g for base in _connected_reps(n - 1) for g in _extensions(base))


def _batch(base: Graph) -> Iterator[Graph]:
    yield from _extensions(base)


def extension_batches(n: int) -> list[Iterator[Graph]]:
    """The connected graphs of order n, as one lazy batch per order-(n-1)
    representative: joined in order, the stream of enumerate_connected_graphs(n).

    A batch reads its base's extensions from the cache of _extensions that
    enumerate_connected_graphs(n) reads too; the process that iterates the
    batch extends the whole base if it has not yet.  Order n itself is not
    cached.
    """
    return [_batch(base) for base in _connected_reps(n - 1)]


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs of order n up to isomorphism, one per class, the
    extensions of each graph of order n - 1 in the order of those graphs."""
    if not 2 <= n <= CONNECTED_ORDER_CAP:
        raise OutOfRange(
            f"connected enumeration supports 2 <= n <= {CONNECTED_ORDER_CAP}"
        )
    return _connected_reps(n)
