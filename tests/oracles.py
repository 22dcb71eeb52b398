"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain adjacency sets and full power-set scans with
no pruning, deliberately sharing no code with the package's search routines.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def naive_gamma_t(n, edges):
    adj = adjacency(n, edges)
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            if all(adj[v] & s for v in range(n)):
                return size
    return None


def naive_gamma(n, edges):
    adj = adjacency(n, edges)
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            s = set(combo)
            covered = set(s)
            for v in s:
                covered |= adj[v]
            if len(covered) == n:
                return size
    return None


def naive_all_min_tds(n, edges):
    adj = adjacency(n, edges)
    k = naive_gamma_t(n, edges)
    out = set()
    for combo in itertools.combinations(range(n), k):
        s = set(combo)
        if all(adj[v] & s for v in range(n)):
            out.add(frozenset(s))
    return out


def naive_is_connected(n, edges):
    adj = adjacency(n, edges)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def bfs_distances(n, edges, src):
    adj = adjacency(n, edges)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def naive_diameter(n, edges):
    return max(max(bfs_distances(n, edges, s).values()) for s in range(n))


def subdivide_once_each(n, edges, subset):
    edges = [tuple(sorted(e)) for e in edges]
    out = list(edges)
    nxt = n
    for e in subset:
        out.remove(tuple(sorted(e)))
        out.append((e[0], nxt))
        out.append((nxt, e[1]))
        nxt += 1
    return nxt, out


def subdivide_times(n, edges, e, t):
    edges = [tuple(sorted(x)) for x in edges]
    out = list(edges)
    out.remove(tuple(sorted(e)))
    chain = [e[0]] + list(range(n, n + t)) + [e[1]]
    out.extend(zip(chain, chain[1:]))
    return n + t, out


def naive_sd(n, edges, total=True, cap=None):
    fn = naive_gamma_t if total else naive_gamma
    base = fn(n, edges)
    cap = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, cap + 1):
        for subset in itertools.combinations(edges, k):
            n2, e2 = subdivide_once_each(n, edges, subset)
            if fn(n2, e2) > base:
                return k
    return None


def naive_msd(n, edges, total=True, cap=3):
    fn = naive_gamma_t if total else naive_gamma
    base = fn(n, edges)
    best = None
    for e in edges:
        for t in range(1, cap + 1):
            n2, e2 = subdivide_times(n, edges, e, t)
            if fn(n2, e2) > base:
                if best is None or t < best:
                    best = t
                break
    return best


def edge_major_msd(edges, cap, base, solve_subdivided):
    """The msd search as it was written edge by edge, frozen as a reference.

    ``edges`` are the graph's normalized edges in ascending order, ``base`` its
    invariant value and ``solve_subdivided(e, t)`` the invariant of the graph
    with edge ``e`` subdivided ``t`` times.  Each edge tries counts up to the
    incumbent's value less one, and the search stops at the first value-1 edge.
    Returns the SubdivisionResult fields (value, witness_edges, witness_t,
    base_value, increased_value).
    """
    best = None
    for e in edges:
        limit = cap if best is None else best[0] - 1
        for t in range(1, limit + 1):
            after = solve_subdivided(e, t)
            if after > base:
                best = (t, (e,), (t,), base, after)
                break
        if best is not None and best[0] == 1:
            break
    return best if best is not None else (None, (), (), base, None)


def subset_major_sd(edges, cap, base, solve_subdivided):
    """The sd search as it was written before it kept minimum covers, frozen
    as a reference: it solves every subset it tries.

    ``edges`` are the graph's normalized edges in ascending order, ``cap`` the
    largest subset size (None for all m edges), ``base`` the graph's invariant
    value and ``solve_subdivided(subset)`` the invariant of the graph with
    every edge of ``subset`` subdivided once.  Subsets go by size, then
    lexicographically, and the first one to increase the invariant is the
    witness.  Returns the SubdivisionResult fields.
    """
    limit = len(edges) if cap is None else min(cap, len(edges))
    for k in range(1, limit + 1):
        for subset in itertools.combinations(edges, k):
            after = solve_subdivided(subset)
            if after > base:
                return (k, subset, (1,) * k, base, after)
    return (None, (), (), base, None)


def prufer_decode(seq, n):
    """Edges of the labeled tree on n vertices with Prufer sequence seq."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def labeled_trees_by_prufer(n):
    """Edge lists of every labeled tree on n >= 1 vertices, one per Prufer sequence."""
    if n <= 2:
        yield [(0, 1)] if n == 2 else []
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        yield prufer_decode(seq, n)


def trees_by_prufer_dedupe(n, key):
    """One edge list per free tree of order n, by full Prufer enumeration.

    Two labeled trees share a class when ``key(n, edges)`` agrees on them.
    There are n^(n-2) labeled trees, so this is for small orders only.
    """
    classes = {}
    for edges in labeled_trees_by_prufer(n):
        classes.setdefault(key(n, edges), edges)
    return list(classes.values())


def naive_graph_classes(n, key):
    """One edge list per isomorphism class of graphs on n vertices.

    Walks all 2^C(n,2) labeled graphs and keeps the first of each class, two
    graphs sharing a class when ``key(n, edges)`` agrees on them.
    """
    pairs = list(itertools.combinations(range(n), 2))
    classes = {}
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        classes.setdefault(key(n, edges), edges)
    return list(classes.values())


def random_connected_edges(n, rng: random.Random, extra_prob=0.3):
    """A random connected graph: random spanning tree plus random extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        edges.add(tuple(sorted((order[i], order[rng.randrange(i)]))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra_prob:
                edges.add((u, v))
    return sorted(edges)


def random_graph_edges(n, rng: random.Random, prob=0.4):
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < prob
    ]


# counting oracles, pure arithmetic

def rooted_tree_counts(n_max):
    """Unlabeled rooted trees r(n) by the divisor-sum recurrence."""
    r = [0] * (n_max + 1)
    if n_max >= 1:
        r[1] = 1
    for n in range(2, n_max + 1):
        total = 0
        for j in range(1, n):
            s = sum(d * r[d] for d in range(1, j + 1) if j % d == 0)
            total += s * r[n - j]
        r[n] = total // (n - 1)
    return r


def free_tree_count(n):
    """Unlabeled free trees from rooted counts (OEIS A000055 relation)."""
    if n == 0:
        return 0
    r = rooted_tree_counts(n)
    value = sum(r[k] * r[n - k] for k in range(n + 1))
    if n % 2 == 0:
        value -= r[n // 2]
    return r[n] - value // 2


def euler_transform(connected_counts):
    """Counts of all graphs per order from connected counts per order.

    connected_counts[k] is the number of isomorphism classes of connected
    graphs on k >= 1 vertices; returns the totals including disconnected.
    """
    n_max = len(connected_counts)
    a = [0] + list(connected_counts)
    c = [0] * (n_max + 1)
    for k in range(1, n_max + 1):
        c[k] = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
    b = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        b[k] = sum(c[j] * b[k - j] for j in range(1, k + 1)) // k
    return b[1:]


def unpruned_general_code(n, edges):
    """The general canonical code searched over every leaf, frozen as a reference.

    Vertices start in cells by degree; refinement splits each cell by its
    vertices' neighbour counts in every cell, round by round; the search
    individualizes each vertex of the first non-singleton cell in turn; and
    the code is the smallest upper-triangle adjacency bit string over all
    leaves.  No automorphism prunes the search.
    """
    adj = adjacency(n, edges)

    def refine(cells):
        while True:
            nxt = []
            for cell in cells:
                parts = {}
                for v in cell:
                    key = tuple(len(adj[v] & set(c)) for c in cells)
                    parts.setdefault(key, []).append(v)
                nxt.extend(parts[key] for key in sorted(parts))
            if len(nxt) == len(cells):
                return cells
            cells = nxt

    def leaf_bits(order):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return sum(1 << k for k, (i, j) in enumerate(pairs) if order[j] in adj[order[i]])

    def leaves(cells):
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                for v in cell:
                    rest = [w for w in cell if w != v]
                    yield from leaves(refine(cells[:i] + [[v], rest] + cells[i + 1:]))
                return
        yield leaf_bits([cell[0] for cell in cells])

    by_degree = {}
    for v in range(n):
        by_degree.setdefault(len(adj[v]), []).append(v)
    best = min(leaves(refine([by_degree[d] for d in sorted(by_degree)])))
    nbits = n * (n - 1) // 2
    return bytes([n]) + best.to_bytes((nbits + 7) // 8 or 1, "big")


def bitwise_graph6(n, edges):
    """graph6 one bit at a time: the column-major upper triangle, packed six
    bits per character, high bit first, the last group padded with zeros."""
    adj = adjacency(n, edges)
    out = [chr(n + 63)]
    group = 0
    width = 0
    for j in range(1, n):
        for i in range(j):
            group = group << 1 | (i in adj[j])
            width += 1
            if width == 6:
                out.append(chr(group + 63))
                group = 0
                width = 0
    if width:
        out.append(chr((group << (6 - width)) + 63))
    return "".join(out)
