"""Canonical byte codes deciding isomorphism for small graphs.

Trees get a rooted-at-center canonical form.  Every other graph gets the
smallest adjacency bit string over the leaves of a search tree (McKay and
Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60, 2014):

- the root refines the unit partition, whose first round splits by degree;
- refinement splits each cell by its vertices' neighbour counts in the cells
  that the previous round split off until the partition is equitable, in an
  order fixed by those counts; the vertices of a cell agree on their counts
  in every other cell, so the parts and their order are those that keying on
  every cell would give;
- a node whose partition still has a cell of several vertices has one child
  per vertex of the first such cell, that vertex individualized (moved into
  a cell of its own in front of the rest), every cell split into its
  non-neighbours, then its neighbours, and the partition refined again;
- a leaf is a partition into single vertices, read as a vertex order.

Every step commutes with relabeling, so the minimum is the same for
isomorphic graphs.  Two leaves with equal bit strings give an automorphism
(the map from one leaf's order to the other's).  Before a node individualizes
a vertex, the automorphisms found so far that fix each individualized vertex
are checked: if one maps a vertex already tried at that node onto this one,
the subtree is an image of one already searched and is skipped.  Symmetric
graphs such as K16 or K8,8 thus take about a hundred leaves, not factorially
many.  ``automorphisms`` returns the automorphisms the search found, which
generate the graph's group; the connected-graph generator prunes by them.

Codes of two graphs are equal iff the graphs are isomorphic, and tree codes
can never collide with non-tree codes (distinct prefixes).  Tree codes take
any order; the search runs on at most GENERAL_CODE_CAP vertices.
"""

from __future__ import annotations

from .errors import NotATree, TooLarge
from .graph import Graph, iter_bits

GENERAL_CODE_CAP = 16


def tree_centers(g: Graph) -> tuple[int, ...]:
    """The one or two middle vertices of a tree, peeling layers of degree <= 1."""
    # peeling a graph with a cycle would run out of leaves and never stop
    if not g.is_tree():
        raise NotATree("centers computed on trees")
    n = g.n
    deg = [g.degree(v) for v in range(n)]
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in iter_bits(g.adj[v]):
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


def _rooted_code(g: Graph, root: int, labels: str | None) -> bytes:
    def rec(v: int, parent: int) -> bytes:
        subs = sorted(rec(w, v) for w in iter_bits(g.adj[v]) if w != parent)
        mid = labels[v].encode() if labels is not None else b""
        return b"(" + mid + b"".join(subs) + b")"

    return rec(root, -1)


def tree_code(g: Graph, labels: str | None = None) -> bytes:
    """Canonical form of a free tree, optionally with per-vertex labels."""
    return min(_rooted_code(g, c, labels) for c in tree_centers(g))


def _refine(g: Graph, cells: list[int], fresh: list[int]) -> list[int]:
    """The coarsest equitable partition finer than cells, in a canonical order.

    Cells are vertex masks.  Each round splits every cell by the vector of its
    vertices' neighbour counts in the fresh cells (fresh holds their indices,
    ascending), the parts ordered by that vector, until a round splits
    nothing; the parts of each cell that split are the next round's fresh
    cells.  The vertices of a cell must agree on their counts in every cell
    that is not fresh, as each round leaves them (they shared a key), so
    keying on those counts too would give the same parts in the same order.
    """
    adj = g.adj
    while fresh:
        masks = [cells[j] for j in fresh]
        nxt: list[int] = []
        fresh = []
        for cell in cells:
            if cell & (cell - 1):
                keyed: dict[tuple[int, ...], int] = {}
                for v in iter_bits(cell):
                    key = tuple(map(int.bit_count, map(adj[v].__and__, masks)))
                    keyed[key] = keyed.get(key, 0) | 1 << v
                if len(keyed) > 1:
                    for key in sorted(keyed):
                        fresh.append(len(nxt))
                        nxt.append(keyed[key])
                    continue
            nxt.append(cell)
        cells = nxt
    return cells


def _individualize(g: Graph, cells: list[int], i: int, v: int) -> list[int]:
    """The equitable partition cells with v moved into a cell of its own in
    front of the rest of cell i, refined.

    The first round splits every cell into the non-neighbours of v, then its
    neighbours: a vertex's count in the rest of cell i is its count in cell i,
    which its cell shares, less its adjacency to v.
    """
    nbrs = g.adj[v]
    parts: list[int] = []
    fresh: list[int] = []
    for cell in cells[:i] + [1 << v, cells[i] ^ 1 << v] + cells[i + 1 :]:
        if cell & nbrs and cell & ~nbrs:
            fresh += len(parts), len(parts) + 1
            parts += cell & ~nbrs, cell & nbrs
        else:
            parts.append(cell)
    return _refine(g, parts, fresh)


def _order_bits(g: Graph, order: list[int]) -> int:
    """Upper-triangle adjacency bits of g relabeled by order, row-major.

    Bit 0 is the pair (0, 1), then (0, 2), ..., (1, 2), ...
    """
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = 0
    idx = 0
    for i, v in enumerate(order):
        row = 0
        for w in iter_bits(g.adj[v]):
            row |= 1 << pos[w]
        bits |= row >> (i + 1) << idx
        idx += n - 1 - i
    return bits


def _search(g: Graph) -> tuple[int, list[list[int]]]:
    """The least leaf bit string of the pruned search, and the automorphisms
    it found on the way, each as an image list."""
    best: int | None = None
    best_order: list[int] = []
    # automorphisms found so far, each as (image list, mask of its fixed points)
    autos: list[tuple[list[int], int]] = []

    def descend(cells: list[int], fixed: int) -> None:
        nonlocal best, best_order
        i = next((i for i, cell in enumerate(cells) if cell & (cell - 1)), None)
        if i is None:
            # a leaf's cells hold one vertex each; the 0-vertex graph's one cell is empty
            order = [cell.bit_length() - 1 for cell in cells if cell]
            bits = _order_bits(g, order)
            if best is None or bits < best:
                best, best_order = bits, order
            elif bits == best:
                image = [0] * g.n
                for u, w in zip(best_order, order):
                    image[u] = w
                autos.append((image, sum(1 << u for u, w in enumerate(image) if u == w)))
            return
        cell = cells[i]
        # orbits of the automorphisms known to fix every individualized vertex
        parent = list(range(g.n))
        absorbed = 0

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        explored: list[int] = []
        for v in iter_bits(cell):
            if explored:
                for image, fixes in autos[absorbed:]:
                    if fixes & fixed == fixed:
                        for x, y in enumerate(image):
                            rx, ry = find(x), find(y)
                            if rx != ry:
                                parent[rx] = ry
                absorbed = len(autos)
                root = find(v)
                if any(find(u) == root for u in explored):
                    continue
            explored.append(v)
            descend(_individualize(g, cells, i, v), fixed | 1 << v)

    descend(_refine(g, [(1 << g.n) - 1], [0]), 0)
    assert best is not None
    return best, [image for image, _ in autos]


def _general_code(g: Graph) -> bytes:
    """Order byte, then the least leaf bit string of the pruned search, big-endian."""
    best, _ = _search(g)
    nbits = g.n * (g.n - 1) // 2
    return bytes([g.n]) + best.to_bytes((nbits + 7) // 8 or 1, "big")


def automorphisms(g: Graph) -> list[list[int]]:
    """Automorphisms of g, as image lists, that generate its automorphism group.

    They are the ones the code search finds, for trees and non-trees alike;
    the identity is never listed, so an asymmetric graph gets none.
    """
    if g.n > GENERAL_CODE_CAP:
        raise TooLarge(f"n={g.n} above the automorphism search cap {GENERAL_CODE_CAP}")
    return _search(g)[1]


def canonical_code(g: Graph) -> bytes:
    """Byte code equal across exactly the isomorphic relabelings of g."""
    if g.is_tree():
        return b"T" + tree_code(g)
    if g.n > GENERAL_CODE_CAP:
        raise TooLarge(f"n={g.n} above the canonical-code cap {GENERAL_CODE_CAP} for non-trees")
    return b"G" + _general_code(g)


def labeled_tree_code(g: Graph, labels: str) -> bytes:
    """Canonical form of a vertex-labeled tree (label-preserving isomorphism)."""
    return b"L" + tree_code(g, labels)
