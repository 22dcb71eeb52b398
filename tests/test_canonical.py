import os
import random
import subprocess
import sys
import time
from itertools import permutations, product
from pathlib import Path

import pytest

from tdmsd import (
    Graph,
    canonical_code,
    complete,
    cycle,
    errors,
    from_edge_list,
    path,
    star,
    wheel,
)
from tdmsd import canonical
from tdmsd.canonical import (
    _general_code,
    _search,
    automorphisms,
    canonical_labelling,
    equitable_partition,
    individualized_leaf,
    labeled_tree_code,
    tree_centers,
    tree_code,
)

from tdmsd.graph import iter_bits

from oracles import (
    full_refine_search,
    prufer_decode,
    random_graph_edges,
    unpruned_general_code,
)


def test_code_invariant_under_relabeling():
    g = path(4)
    assert canonical_code(g) == canonical_code(g.relabel([3, 1, 2, 0]))


def test_code_separates_p4_from_star():
    assert canonical_code(path(4)) != canonical_code(star(4))


def test_two_tree_shapes_on_four_vertices():
    # every Prufer sequence of length 2 over 4 labels, deduped
    codes = {
        canonical_code(from_edge_list(4, prufer_decode(seq, 4)))
        for seq in product(range(4), repeat=2)
    }
    assert len(codes) == 2


def test_code_invariance_random_relabelings():
    rng = random.Random(42)
    for _ in range(60):
        n = rng.randrange(1, 10)
        g = from_edge_list(n, random_graph_edges(n, rng, 0.5))
        code = canonical_code(g)
        for _ in range(8):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_code(g.relabel(perm)) == code


def test_code_cap():
    # trees have no cap; the general search keeps its 16-vertex guard
    assert canonical_code(path(40)) == b"T" + tree_code(path(40))
    assert labeled_tree_code(path(40), "A" * 40)[:1] == b"L"
    with pytest.raises(errors.TooLarge):
        canonical_code(cycle(17))
    with pytest.raises(errors.TooLarge):
        automorphisms(cycle(17))
    with pytest.raises(errors.TooLarge):
        canonical_labelling(cycle(17))


def test_tree_centers():
    assert tree_centers(path(5)) == (2,)
    assert tree_centers(path(6)) == (2, 3)
    assert tree_centers(star(5)) == (0,)
    assert tree_centers(from_edge_list(1, [])) == (0,)
    assert tree_centers(path(2)) == (0, 1)


def test_code_of_the_empty_graph():
    assert canonical_code(Graph(0, ())) == b"G\x00\x00"


def test_tree_and_nontree_codes_disjoint():
    # same vertex count, one a tree and one not: prefixes differ
    t = path(4)
    c = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert canonical_code(t)[:1] == b"T"
    assert canonical_code(c)[:1] == b"G"


def test_labeled_tree_code_distinguishes_labelings():
    g = path(3)
    assert labeled_tree_code(g, "ABA") != labeled_tree_code(g, "AAB")
    # reversing a palindromic labeling is an isomorphism
    assert labeled_tree_code(g, "ABA") == labeled_tree_code(g.relabel([2, 1, 0]), "ABA")


def test_codes_injective_on_small_connected_classes():
    # the orbit enumerator guarantees pairwise non-isomorphic graphs, so the
    # number of distinct codes must equal the number of classes
    from tdmsd import enumerate_connected_graphs

    for n, classes in ((5, 21), (6, 112), (7, 853)):
        stream = enumerate_connected_graphs(n)
        codes = {canonical_code(g) for g in stream}
        assert len(codes) == len(stream) == classes


def _complete_bipartite(a, b):
    return from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _hypercube(d):
    return from_edge_list(1 << d, [(v, v | 1 << k) for v in range(1 << d) for k in range(d)
                                   if not v >> k & 1])


PETERSEN = from_edge_list(10, [(i, (i + 1) % 5) for i in range(5)]
                          + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                          + [(i, i + 5) for i in range(5)])


def _relabelings(g, rng, count=2):
    yield g
    for _ in range(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        yield g.relabel(perm)


def _assert_matches_unpruned(g, rng):
    # relabelings move the search's first leaf, which is not the least one
    # on graphs whose leaves are not all images of each other
    for h in _relabelings(g, rng):
        expected = unpruned_general_code(h.n, h.edges())
        assert _general_code(h) == expected, h.edges()
        if not h.is_tree():
            assert canonical_code(h) == b"G" + expected, h.edges()


def _cycles(*sizes):
    edges, start = [], 0
    for k in sizes:
        edges += [(start + i, start + (i + 1) % k) for i in range(k)]
        start += k
    return from_edge_list(start, edges)


def test_pruned_code_matches_unpruned_reference_on_connected_graphs():
    from tdmsd import enumerate_connected_graphs

    rng = random.Random(3)
    _assert_matches_unpruned(from_edge_list(1, []), rng)
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            _assert_matches_unpruned(g, rng)


def test_pruned_code_matches_unpruned_reference_on_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10)
        g = from_edge_list(n, random_graph_edges(n, rng, rng.uniform(0.2, 0.8)))
        _assert_matches_unpruned(g, rng)


def test_pruned_code_matches_unpruned_reference_on_symmetric_graphs():
    graphs = [complete(n) for n in range(1, 8)] + [cycle(n) for n in range(3, 11)]
    graphs += [_complete_bipartite(3, 3), _complete_bipartite(4, 4), PETERSEN]
    # regular, so refinement splits nothing, yet not vertex-transitive
    graphs += [_cycles(3, 4), _cycles(3, 5), _cycles(3, 3, 4)]
    rng = random.Random(5)
    for g in graphs:
        _assert_matches_unpruned(g, rng)


def _assert_matches_full_refinement(graphs, rng, relabelings=2):
    # the same least leaf and the same automorphisms, found in the same order
    for g in graphs:
        for h in _relabelings(g, rng, relabelings):
            best, _, autos = _search(h)
            assert (best, autos) == full_refine_search(h), h.edges()


def test_canonical_labelling_relabels_isomorphic_graphs_alike():
    # relabeled by its canonical order, every relabeling of g is one graph;
    # the automorphisms are those of the search, and a given root changes
    # nothing
    rng = random.Random(11)
    graphs = [g for g in _small_connected_graphs() if g.n <= 6] + _symmetric_graphs()[::3]
    for g in graphs:
        forms = []
        for h in _relabelings(g, rng):
            order, autos = canonical_labelling(h)
            assert (order, autos) == canonical_labelling(h, equitable_partition(h))
            assert autos == automorphisms(h)
            forms.append(h.relabel([order.index(v) for v in range(h.n)]))
        assert forms[1:] == forms[:-1], g.edges()


def _orbit_roots(g, autos):
    root = list(range(g.n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for image in autos:
        for x, y in enumerate(image):
            root[find(x)] = find(y)
    return [find(x) for x in range(g.n)]


def test_equal_individualized_leaves_share_an_orbit():
    # two vertices of one cell whose leaves have equal bit strings lie in
    # one orbit of the group the search's automorphisms generate; on these
    # graphs every pair of one orbit is found so
    found = same_orbit = 0
    for g in _small_connected_graphs()[2:] + _symmetric_graphs()[::3]:
        cells = equitable_partition(g)
        orbit = _orbit_roots(g, automorphisms(g))
        for cell in cells:
            vs = list(iter_bits(cell))
            if len(vs) < 2:
                continue
            leaf = {v: individualized_leaf(g, cells, v) for v in vs}
            for i, v in enumerate(vs):
                for w in vs[i + 1:]:
                    same_orbit += orbit[v] == orbit[w]
                    if leaf[v] == leaf[w]:
                        assert orbit[v] == orbit[w], (g.edges(), v, w)
                        found += 1
    assert found == same_orbit == 3714


def _small_connected_graphs():
    from tdmsd import enumerate_connected_graphs

    return [Graph(0, ()), from_edge_list(1, [])] + [
        g for n in range(2, 8) for g in enumerate_connected_graphs(n)
    ]


def _symmetric_graphs():
    from tdmsd import enumerate_trees

    graphs = [complete(n) for n in range(1, 17)] + [cycle(n) for n in range(3, 17)]
    graphs += [wheel(rim) for rim in range(3, 16)]
    graphs += [_complete_bipartite(8, 8), _hypercube(4), PETERSEN]
    return graphs + [t for n in range(1, 11) for t in enumerate_trees(n)]


def test_search_matches_full_refinement_reference_on_connected_graphs():
    _assert_matches_full_refinement(_small_connected_graphs(), random.Random(13))


def test_search_matches_full_refinement_reference_on_random_graphs():
    rng = random.Random(17)
    graphs = []
    for _ in range(200):
        n = rng.randrange(1, 11)
        graphs.append(from_edge_list(n, random_graph_edges(n, rng, rng.uniform(0.2, 0.8))))
    _assert_matches_full_refinement(graphs, rng, relabelings=0)


def test_search_matches_full_refinement_reference_on_symmetric_graphs():
    _assert_matches_full_refinement(_symmetric_graphs(), random.Random(19), relabelings=1)


def test_every_refined_partition_is_equitable(monkeypatch):
    # refinement keys only on the cells that last split, which is exact only
    # if every partition it returns is equitable: the vertices of a cell agree
    # on their neighbour counts in every cell
    refined = []
    refine = canonical._refine

    def recording(g, cells, fresh):
        out = refine(g, cells, fresh)
        refined.append((g, out))
        return out

    monkeypatch.setattr(canonical, "_refine", recording)
    for g in _small_connected_graphs()[:200] + _symmetric_graphs()[:40]:
        _search(g)
    assert len(refined) > 1000
    for g, cells in refined:
        assert sum(cells) == (1 << g.n) - 1 and sum(map(int.bit_count, cells)) == g.n
        for cell in cells:
            for other in cells:
                counts = {(g.adj[v] & other).bit_count() for v in range(g.n) if cell >> v & 1}
                assert len(counts) <= 1, (g.edges(), cells)


def test_codes_agree_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")

    def both(n, edges):
        h = nx.empty_graph(n)
        h.add_edges_from(edges)
        return from_edge_list(n, edges), h

    rng = random.Random(11)
    isomorphic = 0
    for _ in range(300):
        # same order and size, small enough that many pairs are isomorphic
        # without being equal
        n = rng.randrange(2, 8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randrange(len(pairs) + 1)
        (g, gx), (h, hx) = both(n, rng.sample(pairs, m)), both(n, rng.sample(pairs, m))
        same = nx.is_isomorphic(gx, hx)
        assert (canonical_code(g) == canonical_code(h)) == same, (g.edges(), h.edges())
        isomorphic += same
    assert 30 < isomorphic < 270


@pytest.mark.parametrize("name, g", [
    ("K16", complete(16)),
    ("empty16", from_edge_list(16, [])),
    ("8K2", from_edge_list(16, [(2 * i, 2 * i + 1) for i in range(8)])),
    ("C16", cycle(16)),
    ("K8,8", _complete_bipartite(8, 8)),
    ("Q4", _hypercube(4)),
    ("Petersen", PETERSEN),
])
def test_symmetric_graphs_skip_the_factorial_code_path(name, g):
    rng = random.Random(name)
    codes = []
    for _ in range(2):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        start = time.perf_counter()
        codes.append(canonical_code(h))
        assert time.perf_counter() - start < 5
    assert codes[0] == codes[1] == canonical_code(g)


def test_labeled_tree_code_on_a_cycle_raises_instead_of_hanging():
    # leaf peeling on a graph with a cycle once ran out of leaves and never stopped
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from tdmsd import cycle, errors, labeled_tree_code\n"
        "try:\n"
        "    labeled_tree_code(cycle(5), 'AAAAA')\n"
        "except errors.NotATree:\n"
        "    print('NotATree')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.stdout.strip() == "NotATree", proc.stderr


@pytest.mark.parametrize("g", [cycle(4), from_edge_list(4, [(0, 1), (2, 3)]),
                               from_edge_list(3, [(0, 1)])])
def test_tree_centers_rejects_non_trees(g):
    with pytest.raises(errors.NotATree):
        tree_centers(g)


def _group_order(gens, n):
    identity = tuple(range(n))
    seen = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for gen in gens:
            q = tuple(gen[x] for x in p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen)


def _brute_group_order(g):
    return sum(
        all(g.adj[p[v]] == sum(1 << p[w] for w in range(g.n) if g.adj[v] >> w & 1)
            for v in range(g.n))
        for p in permutations(range(g.n))
    )


def test_found_automorphisms_generate_the_whole_group():
    from tdmsd import enumerate_connected_graphs, enumerate_trees

    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    graphs += [g for n in range(6, 8) for g in enumerate_trees(n)]
    graphs += [complete(6), cycle(6), star(6)]
    for g in graphs:
        gens = automorphisms(g)
        for image in gens:
            assert sorted(image) == list(range(g.n))
            assert g.relabel(image) == g
        assert _group_order(gens, g.n) == _brute_group_order(g)
