import random

import pytest
from hypothesis import given, strategies as st

from tdmsd import domination
from tdmsd import (
    all_min_total_dominating_sets,
    complete,
    cycle,
    enumerate_connected_graphs,
    enumerate_trees,
    errors,
    fixture_by_name,
    from_edge_list,
    gamma,
    gamma_t,
    gamma_t_membership_profile,
    gamma_t_set_avoiding_leaves,
    gamma_t_value,
    gamma_value,
    graph6_decode,
    gstar,
    is_dominating,
    is_total_dominating,
    path,
    star,
)
from tdmsd.domination import (
    _all_min_tds_masks,
    _closed_covers,
    _first_cover,
    _leaf_order,
    _min_cover,
    _search,
    _total_covers,
    _walk,
    solve_gamma_t,
)
from tdmsd.graph import iter_bits, leaves_mask

from oracles import (
    covers_of_size,
    naive_all_min_tds,
    naive_gamma,
    naive_gamma_t,
    random_connected_edges,
    random_graph_edges,
)


def test_is_total_dominating_examples():
    assert is_total_dominating(path(4), {1, 2})
    assert not is_total_dominating(path(4), {1, 3})
    assert is_total_dominating(cycle(3), {0, 1})


def test_is_dominating_matches_closed_neighbourhoods_on_every_subset():
    graphs = [t for n in range(1, 9) for t in enumerate_trees(n)]
    graphs += [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    seen = set()
    for g in graphs:
        closed = [{v} for v in range(g.n)]
        for x, y in g.edges():
            closed[x].add(y)
            closed[y].add(x)
        for mask in range(1 << g.n):
            s = {v for v in range(g.n) if mask >> v & 1}
            want = all(closed[v] & s for v in range(g.n))
            assert is_dominating(g, s) == want
            seen.add(want)
    assert seen == {True, False}


def test_gamma_t_values():
    assert gamma_t(path(6)).value == 4
    assert gamma_t(cycle(9)).value == 5
    for n in range(2, 7):
        assert gamma_t(complete(n)).value == 2


def test_gamma_values():
    assert gamma(path(4)).value == 2
    assert gamma(star(6)).value == 1
    assert gamma(star(6)).witness == {0}
    assert gamma(path(7)).value == 3


def test_certificates_verify():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 10)
        g = from_edge_list(n, random_connected_edges(n, rng))
        ct = gamma_t(g)
        assert is_total_dominating(g, ct.witness) and len(ct.witness) == ct.value
        cg = gamma(g)
        assert is_dominating(g, cg.witness) and len(cg.witness) == cg.value
        assert ct.value >= max(2, cg.value)


def test_witness_is_lexicographically_smallest():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randrange(2, 9)
        g = from_edge_list(n, random_connected_edges(n, rng))
        witness = gamma_t(g).witness
        smallest = min(naive_all_min_tds(n, g.edges()), key=sorted)
        assert witness == smallest


def test_values_match_naive_oracle():
    rng = random.Random(9)
    for _ in range(80):
        n = rng.randrange(2, 10)
        edges = random_graph_edges(n, rng, 0.45)
        g = from_edge_list(n, edges)
        assert gamma_value(g) == naive_gamma(n, edges)
        if all(g.degree(v) > 0 for v in range(n)):
            assert gamma_t_value(g) == naive_gamma_t(n, edges)


def test_values_match_naive_on_all_small_connected_graphs():
    # exhaustive agreement between the branch-and-bound and the power-set scan
    from tdmsd import enumerate_connected_graphs, enumerate_trees

    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            edges = g.edges()
            assert gamma_t_value(g) == naive_gamma_t(n, edges)
            assert gamma_value(g) == naive_gamma(n, edges)
    for n in range(2, 10):
        for t in enumerate_trees(n):
            assert gamma_t_value(t) == naive_gamma_t(n, t.edges())


def test_gamma_value_from_forced_supports_matches_the_oracle():
    # gamma_value and solve_gamma_t start from the support of every leaf; a
    # K2, whose support is itself a leaf, forces nothing, so graphs with K2
    # components and isolated vertices are checked too
    graphs = [t for n in range(1, 11) for t in enumerate_trees(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    graphs += [from_edge_list(2, [(0, 1)]), from_edge_list(4, [(0, 1), (2, 3)])]
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randrange(1, 7)
        k2s = rng.randrange(1, 3)
        edges = random_graph_edges(n, rng) + [(n + 2 * i, n + 2 * i + 1) for i in range(k2s)]
        graphs.append(from_edge_list(n + 2 * k2s, edges))
    for g in graphs:
        assert gamma_value(g) == naive_gamma(g.n, g.edges()), g.edges()
        if all(g.adj):
            assert solve_gamma_t(g) == naive_gamma_t(g.n, g.edges()), g.edges()


def test_gamma_t_closed_forms_paths_cycles():
    for n in range(3, 17):
        expected = n // 2 + (n + 3) // 4 - n // 4
        assert gamma_t_value(path(n)) == expected
        assert gamma_t_value(cycle(n)) == expected
        assert gamma_value(path(n)) == -(-n // 3)


def test_gamma_t_rejects_isolated_vertices():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(errors.IsolatedVertex):
        gamma_t_value(g)


def test_all_min_sets_examples():
    assert all_min_total_dominating_sets(path(4)) == [frozenset({1, 2})]
    c4 = {frozenset(s) for s in all_min_total_dominating_sets(cycle(4))}
    assert c4 == {frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})}
    assert len(all_min_total_dominating_sets(complete(3))) == 3


def test_all_min_sets_complete_vs_power_set():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randrange(2, 9)
        g = from_edge_list(n, random_connected_edges(n, rng))
        naive = naive_all_min_tds(n, g.edges())
        assert set(all_min_total_dominating_sets(g)) == naive
        assert all_min_total_dominating_sets(g) == sorted(naive, key=sorted)


def test_search_modes_match_the_subset_search_oracle():
    # total and closed covers, every vertex allowed or the leaves banned:
    # every cover of the minimum size, in order, and the first of them
    from tdmsd import enumerate_connected_graphs, enumerate_trees

    graphs = [t for n in range(2, 15) for t in enumerate_trees(n)]
    graphs += [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    for g in graphs:
        full = g.full_mask
        for covers in (_total_covers(g), _closed_covers(g)):
            k = _min_cover(covers)[0]
            for banned in (0, leaves_mask(g)):
                expected = covers_of_size(covers, full, k, full & ~banned, False)
                found = []
                _search(covers, k + 1, banned=banned, found=found)
                assert sorted(found, key=lambda m: list(iter_bits(m))) == expected
                first = covers_of_size(covers, full, k, full & ~banned, True)
                assert _first_cover(covers, k, banned) == (first[0] if first else None)
        assert _all_min_tds_masks(g) == tuple(covers_of_size(g.adj, full, gamma_t_value(g), full, False))


def test_search_collects_the_minimum_covers_under_a_loose_bound():
    # with a list, a smaller cover empties it and lowers the bound, so a
    # bound above the minimum, by two or from the leaf-up walk's cover,
    # still ends with the minimum covers: those of the least size that has
    # any below the bound, the leaves banned or not
    graphs = [t for n in range(2, 13) for t in enumerate_trees(n)]
    graphs += [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    for g in graphs:
        full = g.full_mask
        for covers in (_total_covers(g), _closed_covers(g)):
            k = _min_cover(covers)[0]
            walked = _walk(covers, _leaf_order(covers))[0].bit_count()
            for banned in (0, leaves_mask(g)):
                for bound in (k + 2, walked + 1):
                    expected = []
                    for size in range(k, bound):
                        expected = covers_of_size(covers, full, size, full & ~banned, False)
                        if expected:
                            break
                    found = []
                    _search(covers, bound, banned=banned, found=found)
                    assert sorted(found, key=lambda m: list(iter_bits(m))) == expected


def test_all_min_sets_keep_their_errors():
    with pytest.raises(errors.IsolatedVertex):
        _all_min_tds_masks(from_edge_list(3, [(0, 1)]))
    with pytest.raises(errors.TooLarge):
        _all_min_tds_masks(path(21))


def test_all_min_sets_cap():
    # P20, at the cap, has one minimum total dominating set
    assert all_min_total_dominating_sets(path(20)) == [
        frozenset(v for v in range(20) if v % 4 in (1, 2))
    ]
    with pytest.raises(errors.TooLarge):
        all_min_total_dominating_sets(path(21))


def test_membership_profile_p4():
    prof = gamma_t_membership_profile(path(4))
    assert prof.in_all == {1, 2}
    assert prof.in_none == {0, 3}
    assert prof.in_some == {1, 2}


def test_membership_profile_c4():
    prof = gamma_t_membership_profile(cycle(4))
    assert prof.in_some == {0, 1, 2, 3}
    assert prof.in_all == frozenset()
    assert prof.in_none == frozenset()


def test_membership_profile_p7_leaves():
    prof = gamma_t_membership_profile(path(7))
    assert 0 in prof.in_some and 6 in prof.in_some


def test_membership_profile_partition():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(2, 10)
        g = from_edge_list(n, random_connected_edges(n, rng))
        prof = gamma_t_membership_profile(g)
        assert prof.in_some | prof.in_none == set(range(n))
        assert not (prof.in_some & prof.in_none)
        assert prof.in_all <= prof.in_some


def test_avoiding_leaves():
    assert gamma_t_set_avoiding_leaves(path(4)) == {1, 2}
    s = gamma_t_set_avoiding_leaves(path(7))
    assert s <= {1, 2, 3, 4, 5} and len(s) == 4
    with pytest.raises(errors.IsStar):
        gamma_t_set_avoiding_leaves(star(4))
    with pytest.raises(errors.IsStar):
        gamma_t_set_avoiding_leaves(from_edge_list(2, [(0, 1)]))


def test_avoiding_leaves_always_exists_for_non_stars():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        n = rng.randrange(3, 10)
        g = from_edge_list(n, random_connected_edges(n, rng))
        from tdmsd import structure_profile

        if structure_profile(g).is_star:
            continue
        s = gamma_t_set_avoiding_leaves(g)
        assert is_total_dominating(g, s)
        assert len(s) == gamma_t_value(g)
        assert not any(g.degree(v) == 1 for v in s)
        checked += 1
    assert checked > 30


@st.composite
def cover_problems(draw):
    """Total or closed cover sets of an isolate-free graph of order <= 12."""
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    touched = {x for e in edges for x in e}
    for v in range(n):
        if v not in touched:
            w = draw(st.integers(0, n - 2))
            edges.append((v, w if w < v else w + 1))
    g = from_edge_list(n, edges)
    covers = draw(st.sampled_from((_total_covers, _closed_covers)))(g)
    return covers, g.full_mask


def _covered_by(covers, mask):
    covered = 0
    for u in range(len(covers)):
        if mask >> u & 1:
            covered |= covers[u]
    return covered


@given(cover_problems())
def test_cover_search_seeded_with_any_cover_finds_the_minimum(problem):
    # the search starts from the smaller of the leaf-up and the greedy cover,
    # and whichever it is, no smaller cover exists; the walk's packing that
    # comes back with it is no larger
    covers, full = problem
    size, mask, packing = _min_cover(covers)
    assert mask.bit_count() == size and _covered_by(covers, mask) == full
    assert packing == _walk(covers, _leaf_order(covers))[1]
    assert packing.bit_count() <= size
    assert not covers_of_size(covers, full, size - 1, full, True)


def _check_certificate(g, covers, minimum):
    # the leaf-up cover covers, the packing's cover sets are pairwise
    # disjoint, packing <= minimum <= cover, and the solve with any stop
    # answers below the stop or exactly
    full = g.full_mask
    cover, packing = _walk(covers, _leaf_order(covers))
    assert _covered_by(covers, cover) == full
    packed = 0
    for v in iter_bits(packing):
        assert not covers[v] & packed
        packed |= covers[v]
    assert packing.bit_count() <= minimum <= cover.bit_count()
    for stop in range(g.n + 1):
        size, mask, packed_back = _min_cover(covers, stop=stop)
        assert mask.bit_count() == size and _covered_by(covers, mask) == full
        assert packed_back == packing
        if minimum <= stop:
            assert size <= stop
        else:
            assert size == minimum


def test_leaf_up_certificate_is_sound_on_small_trees_and_graphs():
    graphs = [t for n in range(2, 11) for t in enumerate_trees(n)]
    graphs += [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    for g in graphs:
        edges = g.edges()
        _check_certificate(g, _total_covers(g), naive_gamma_t(g.n, edges))
        _check_certificate(g, _closed_covers(g), naive_gamma(g.n, edges))
        if g.is_tree():
            # Rall's and Meir and Moon's theorems: the walk closes on trees
            for covers in (_total_covers(g), _closed_covers(g)):
                cover, packing = _walk(covers, _leaf_order(covers))
                assert cover.bit_count() == packing.bit_count(), edges


@pytest.mark.parametrize("cover_sets", [_total_covers, _closed_covers], ids=["total", "closed"])
def test_leaf_order_runs_the_bfs_layers_deepest_first(cover_sets):
    # every connected graph of order 2 to 6: the vertices by falling distance
    # from vertex 0, each layer ascending, each paired with the layer above
    # it; the root alone has no layer above
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            dist = g.bfs_distances(0)
            layers = [0] * (max(dist) + 1)
            for v, d in enumerate(dist):
                layers[d] |= 1 << v
            want = [(v, layers[dist[v] - 1] if dist[v] else 0)
                    for v in sorted(range(n), key=lambda v: (-dist[v], v))]
            assert _leaf_order(cover_sets(g)) == want, g.edges()


def test_leaf_order_roots_each_component_at_its_lowest_vertex():
    # P3 + K2 with the labels interleaved, and K1 + K2 with the isolated
    # vertex last: a root per component, the first component's last
    g = from_edge_list(5, [(0, 2), (2, 4), (1, 3)])
    assert _leaf_order(_total_covers(g)) == [(3, 0b10), (1, 0), (4, 0b100), (2, 0b1), (0, 0)]
    g = from_edge_list(3, [(0, 1)])
    assert _leaf_order(_closed_covers(g)) == [(2, 0), (1, 0b1), (0, 0)]


@st.composite
def isolate_free_graphs_of_several_components(draw):
    """Two or three components of 2 to 4 vertices each (K2 among them), each
    a random spanning tree plus chords, with the labels shuffled so that
    components interleave."""
    edges, n = [], 0
    for k in draw(st.lists(st.integers(2, 4), min_size=2, max_size=3)):
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        component = [(draw(st.integers(0, v - 1)), v) for v in range(1, k)]
        component += draw(st.lists(st.sampled_from(pairs), max_size=k))
        edges += [(n + u, n + v) for u, v in component]
        n += k
    label = draw(st.permutations(range(n)))
    return from_edge_list(n, [(label[u], label[v]) for u, v in edges])


@given(isolate_free_graphs_of_several_components())
def test_leaf_up_certificate_is_sound_on_graphs_of_several_components(g):
    edges = g.edges()
    _check_certificate(g, _total_covers(g), naive_gamma_t(g.n, edges))
    _check_certificate(g, _closed_covers(g), naive_gamma(g.n, edges))


def test_total_cover_of_a_graph_with_an_isolated_vertex_is_none():
    # the isolated vertex as the first root, and as a later one
    for g in (from_edge_list(3, [(1, 2)]), from_edge_list(3, [(0, 1)]),
              from_edge_list(5, [(0, 4), (1, 2)])):
        assert _walk(_total_covers(g), _leaf_order(_total_covers(g))) is None
        assert _min_cover(_total_covers(g)) is None
        assert _min_cover(_total_covers(g), stop=g.n) is None


# a tree of 53 vertices with two chords, gamma 19 and gamma_t 23: its gamma
# solve takes over a thousand times as long with no support forced
_CHORDED_TREE53 = (
    "tiPA?G@@?O?OC?O???__??C?_??_??A???A??A????_A???@???O???G???????A??OOA"
    "?????????O???C??@???G?????????A?????a????A????C_????_???A???????????C?C"
    "?????C???????@????????@?????G?????????A??????@???????_???????????_@????"
    "????@????????C??????"
)


def test_forced_supports_reach_the_search(monkeypatch):
    # every search _min_cover runs starts from the supports of the leaves
    # that are not half of a K2, read off the cover sets alone; the chorded
    # tree also goes in with a K2 beside it, whose two leaves force nothing
    chosen_seen = []
    search = domination._search

    def recording(covers, bound, chosen=0, *args, **kwargs):
        chosen_seen.append(chosen)
        return search(covers, bound, chosen, *args, **kwargs)

    monkeypatch.setattr(domination, "_search", recording)
    graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    tree = graph6_decode(_CHORDED_TREE53)
    graphs += [from_edge_list(55, tree.edges() + [(53, 54)]), tree]
    searched = forced = 0
    for g in graphs:
        leaves = leaves_mask(g)
        supports = 0
        for v in iter_bits(leaves):
            supports |= g.adj[v]
        supports &= ~leaves
        for covers in (_total_covers(g), _closed_covers(g)):
            chosen_seen.clear()
            _min_cover(covers)
            assert chosen_seen in ([], [supports]), g.edges()
            searched += len(chosen_seen)
            forced += bool(chosen_seen and supports)
    # solves that reach a search, and those of them with a support forced
    assert (searched, forced) == (744, 88)
    assert chosen_seen == [supports] and supports.bit_count() == 17
    assert (gamma_value(tree), solve_gamma_t(tree)) == (19, 23)


class _CountingCovers(tuple):
    """Cover sets that count every element a solve reads."""

    reads = 0

    def __getitem__(self, i):
        _CountingCovers.reads += 1
        return tuple.__getitem__(self, i)


def _grid(rows, cols):
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return from_edge_list(rows * cols, edges)


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, edges)


@pytest.mark.parametrize("g, total_reads, closed_reads", [
    # a prune that lets a branch through at count + lower == best read
    # 1,266/8,085, 233/145, 192/21 and 416/288
    (_grid(5, 5), 1102, 3863),
    (_petersen(), 88, 76),
    (cycle(9), 91, 21),
    (gstar(), 384, 208),
], ids=["grid5x5", "petersen", "c9", "gstar"])
def test_cover_solve_work_is_pinned(g, total_reads, closed_reads):
    reads = []
    for covers in (_total_covers(g), _closed_covers(g)):
        _CountingCovers.reads = 0
        _min_cover(_CountingCovers(covers))
        reads.append(_CountingCovers.reads)
    assert reads == [total_reads, closed_reads]


@pytest.mark.parametrize("name, total_searches, closed_searches", [
    # searching again for a vertex already in the witness made
    # 12/12, 9/9, 6/6, 7/7, 4/4, 6/6 and 6/6
    ("gstar", 7, 9),
    ("c9", 5, 7),
    ("wheel5", 5, 6),
    ("p7", 4, 5),
    ("k4", 3, 4),
    ("star6", 5, 6),
    ("p6", 3, 5),
])
def test_witness_search_work_is_pinned(name, total_searches, closed_searches, monkeypatch):
    # the searches _first_cover makes itself, for gamma_t's and gamma's
    # witnesses; the value solve is not counted, since gamma_t_value's cache
    # may skip it
    g = fixture_by_name(name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _search(*args, **kwargs)

    monkeypatch.setattr(domination, "_search", counting)
    searches = []
    for covers in (_total_covers(g), _closed_covers(g)):
        k = _min_cover(covers)[0]
        calls.clear()
        assert _first_cover(covers, k, 0) is not None
        searches.append(len(calls))
    assert searches == [total_searches, closed_searches]


@pytest.mark.slow
def test_leaf_up_certificate_closes_on_every_tree_through_order_sixteen():
    count = 0
    for n in range(2, 17):
        for t in enumerate_trees(n):
            for covers in (_total_covers(t), _closed_covers(t)):
                cover, packing = _walk(covers, _leaf_order(covers))
                assert cover.bit_count() == packing.bit_count(), t.edges()
            count += 1
    assert count == 32507
