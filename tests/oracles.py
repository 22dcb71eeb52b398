"""Independent brute-force oracles used to freeze expected values.

Everything here works on plain adjacency sets and full power-set scans with
no pruning, deliberately sharing no code with the package's search routines.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque

from tdmsd.errors import EdgeNotPresent, TooLarge, TooSmall
from tdmsd.graph import MAX_VERTICES, Graph, normalize_edge


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


def double_bfs_longest_path(n, edges):
    """A tree's diametral path by double BFS: a is the least vertex farthest
    from 0, b the least vertex farthest from a; the path runs from the
    smaller of the two to the larger."""
    adj = adjacency(n, edges)
    d0 = bfs_distances(n, edges, 0)
    a = min(v for v, d in d0.items() if d == max(d0.values()))
    da = bfs_distances(n, edges, a)
    b = min(v for v, d in da.items() if d == max(da.values()))
    # walk from b towards a, each step to the neighbour one closer to a
    path = [b]
    while path[-1] != a:
        path.append(min(w for w in adj[path[-1]] if da[w] == da[path[-1]] - 1))
    return tuple(path) if b < a else tuple(reversed(path))


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


def _connected_without(adj, w):
    rest = [v for v in range(len(adj)) if v != w]
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        v = stack.pop()
        for u in rest:
            if adj[v] >> u & 1 and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(rest)


def connected_graphs_by_code(n_max, key):
    """One graph per class of connected graphs, for each order 1..n_max.

    The connected-graph generator as it was before canonical augmentation:
    each order extends every graph of the order below by a vertex joined to
    each non-empty vertex set, keeps the extensions whose new vertex is a
    non-cut vertex of largest degree among the non-cut vertices, and keeps
    the first of each ``key(g)``.  levels[n] maps each key to its graph, in
    ascending key order; levels[0] is empty.
    """
    levels = [{}, {key(Graph(1, [0])): Graph(1, [0])}]
    for n in range(2, n_max + 1):
        found = {}
        for base in levels[-1].values():
            new = base.n
            for nbrs in range(1, 1 << new):
                adj = [a | (nbrs >> v & 1) << new for v, a in enumerate(base.adj)] + [nbrs]
                deg = bin(nbrs).count("1")
                if any(bin(adj[w]).count("1") > deg and _connected_without(adj, w)
                       for w in range(new)):
                    continue
                g = Graph(n, adj)
                found.setdefault(key(g), g)
        levels.append({k: found[k] for k in sorted(found)})
    return levels


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


# the sd = 1 edge condition and Lemma 14's edge clause as two hand-written
# clause functions, frozen as references for the one branch evaluator; both
# take a Graph (adjacency bitmasks in g.adj), an edge uv and a set D as a mask

def _pn_mask(g, u, d_mask):
    # PN[u, D]: N[u] minus the closed neighbourhoods of D - {u}
    others = 0
    for x in range(g.n):
        if d_mask >> x & 1 and x != u:
            others |= g.adj[x] | 1 << x
    return (g.adj[u] | 1 << u) & ~others


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _one_endpoint_ok(g, inside, outside, d_mask):
    # with exactly one endpoint in D, the outside one must be a private
    # neighbour of the inside one
    return bool(_pn_mask(g, inside, d_mask) >> outside & 1)


def _both_branch_ok(g, a, b, d_mask):
    # stated for N(a) & D == {b}: PN[a,D] nonempty, and PN[b,D] nonempty or
    # some x in (N(b) & D) - {a} has N(x) & D == {b}
    if not _pn_mask(g, a, d_mask):
        return False
    if _pn_mask(g, b, d_mask):
        return True
    for x in _bits(g.adj[b] & d_mask & ~(1 << a)):
        if g.adj[x] & d_mask == 1 << b:
            return True
    return False


def edge_condition_on_set(g, u, v, d_mask):
    """The sd = 1 condition on edge uv for the set D."""
    u_in = bool(d_mask >> u & 1)
    v_in = bool(d_mask >> v & 1)
    if u_in != v_in:
        inside, outside = (u, v) if u_in else (v, u)
        return _one_endpoint_ok(g, inside, outside, d_mask)
    if u_in and v_in:
        sel_u = g.adj[u] & d_mask == 1 << v
        sel_v = g.adj[v] & d_mask == 1 << u
        if not (sel_u or sel_v):
            return False
        if sel_u and _both_branch_ok(g, u, v, d_mask):
            return True
        if sel_v and _both_branch_ok(g, v, u, d_mask):
            return True
        return False
    return True  # neither endpoint in D: vacuous


def lemma14_edge_ok(g, u, v, d_mask):
    """Lemma 14's clause a or b on edge uv for the set D."""
    u_in = bool(d_mask >> u & 1)
    v_in = bool(d_mask >> v & 1)
    if u_in != v_in:
        inside, outside = (u, v) if u_in else (v, u)
        # clause a: the outside endpoint is not a private neighbour
        return not _pn_mask(g, inside, d_mask) >> outside & 1
    if not (u_in and v_in):
        return False
    nu = g.adj[u] & d_mask
    nv = g.adj[v] & d_mask
    if nu.bit_count() >= 2 and nv.bit_count() >= 2:  # b1
        return True

    def sub(a, b, na, nb):
        # b2/b3 with N(a) & D == {b}
        if na != 1 << b:
            return False
        if not _pn_mask(g, a, d_mask):
            return True
        if _pn_mask(g, b, d_mask):
            return False
        return all(
            (g.adj[x] & d_mask).bit_count() >= 2
            for x in _bits(nb & ~(1 << a))
        )

    return sub(u, v, nu, nv) or sub(v, u, nv, nu)


# the two subdivision builders as they stood before one shared builder
# served both, frozen as references for it

def reference_subdivide(g, e, t):
    """Replace edge e=(u,v) by the path u, x1, ..., xt, v."""
    if t < 1:
        raise TooSmall(f"subdivision count must be >= 1, got {t}")
    u, v = normalize_edge(*e)
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    n2 = g.n + t
    if n2 > MAX_VERTICES:
        raise TooLarge(f"subdivision would need {n2} vertices")
    adj = list(g.adj) + [0] * t
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    chain = [u] + [g.n + i for i in range(t)] + [v]
    for a, b in zip(chain, chain[1:]):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Graph(n2, adj)


def reference_subdivide_edges(g, edges):
    """Subdivide each listed edge exactly once, simultaneously."""
    norm = [normalize_edge(*e) for e in edges]
    if len(set(norm)) != len(norm):
        raise EdgeNotPresent(f"duplicate edges in {edges}")
    for u, v in norm:
        if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
            raise EdgeNotPresent(f"edge ({u}, {v}) not in graph")
    n2 = g.n + len(norm)
    if n2 > MAX_VERTICES:
        raise TooLarge(f"subdivision would need {n2} vertices")
    adj = list(g.adj) + [0] * len(norm)
    for i, (u, v) in enumerate(norm):
        x = g.n + i
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        adj[u] |= 1 << x
        adj[v] |= 1 << x
        adj[x] = (1 << u) | (1 << v)
    return Graph(n2, adj)


# the lexicographic subset search that served minimum-set enumeration and
# the witnesses before the branch-and-bound did, frozen as a reference for it

def covers_of_size(
    covers: tuple[int, ...],
    full: int,
    k: int,
    allowed: int,
    first_only: bool,
) -> list[int]:
    """All (or the lex-first) k-subsets of allowed vertices covering ``full``.

    Subsets are explored in lexicographic order of their sorted index tuples,
    so the first result is the lexicographically smallest one.
    """
    n = len(covers)
    out: list[int] = []
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | (covers[i] if allowed >> i & 1 else 0)
    max_pc = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        pc = covers[i].bit_count() if allowed >> i & 1 else 0
        max_pc[i] = max(max_pc[i + 1], pc)

    def rec(start: int, count: int, covered: int, chosen: int) -> bool:
        if count == k:
            if covered == full:
                out.append(chosen)
                return first_only
            return False
        slots = k - count
        uncovered = full & ~covered
        if uncovered & ~suffix[start]:
            return False
        if slots * max_pc[start] < uncovered.bit_count():
            return False
        for u in range(start, n - slots + 1):
            if not allowed >> u & 1:
                continue
            if rec(u + 1, count + 1, covered | covers[u], chosen | (1 << u)):
                return True
        return False

    rec(0, 0, 0, 0)
    return out


# the pruned code search as it was while refinement keyed each round on every
# cell, frozen as a reference for the search that keys on the cells that split

def _full_refine(g: Graph, cells: list[list[int]]) -> list[list[int]]:
    adj = g.adj
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        nxt: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                nxt.append(cell)
                continue
            keyed: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(map(int.bit_count, map(adj[v].__and__, masks)))
                keyed.setdefault(key, []).append(v)
            if len(keyed) > 1:
                changed = True
                nxt.extend(keyed[key] for key in sorted(keyed))
            else:
                nxt.append(cell)
        cells = nxt
        if not changed:
            return cells


def _order_bits(g: Graph, order: list[int]) -> int:
    n = g.n
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = 0
    idx = 0
    for i, v in enumerate(order):
        row = 0
        for w in range(n):
            if g.adj[v] >> w & 1:
                row |= 1 << pos[w]
        bits |= row >> (i + 1) << idx
        idx += n - 1 - i
    return bits


def full_refine_search(g: Graph) -> tuple[int, list[list[int]]]:
    """The least leaf bit string and the automorphism image lists, in the
    order found, of the pruned search whose refinement keys on every cell."""
    best: int | None = None
    best_order: list[int] = []
    autos: list[tuple[list[int], int]] = []

    def descend(cells: list[list[int]], fixed: int) -> None:
        nonlocal best, best_order
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            order = [v for cell in cells for v in cell]
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
        parent = list(range(g.n))
        absorbed = 0

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        explored: list[int] = []
        for v in sorted(cell):
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
            rest = [w for w in cell if w != v]
            descend(_full_refine(g, cells[:i] + [[v], rest] + cells[i + 1:]), fixed | 1 << v)

    descend(_full_refine(g, [list(range(g.n))]), 0)
    assert best is not None
    return best, [image for image, _ in autos]
