import hashlib
import random
import time
from itertools import combinations

import pytest

from tdmsd import (
    complete,
    cycle,
    enumerate_connected_graphs,
    enumerate_trees,
    errors,
    from_edge_list,
    gamma_t_value,
    gamma_value,
    generate_family,
    gstar,
    msd_gamma,
    msd_gamma_t,
    msd_gamma_t_edge,
    path,
    sd_gamma,
    sd_gamma_t,
    star,
    subdivide,
    subdivide_edges,
    wheel,
)
from tdmsd import canonical, domination, graph, subdivision, verify
from tdmsd.domination import (
    _closed_covers,
    _min_cover,
    _total_covers,
    _walk,
    is_dominating,
    is_total_dominating,
    solve_gamma_t,
)
from tdmsd.graph import iter_bits, leaves_mask
from tdmsd.subdivision import SearchState
from tdmsd.verify import path_cycle_formula

from oracles import (
    edge_major_msd,
    naive_msd,
    naive_sd,
    random_connected_edges,
    subset_major_sd,
)


def test_msd_edge_examples():
    assert msd_gamma_t_edge(cycle(6), (0, 1)).value == 3
    assert msd_gamma_t_edge(star(4), (0, 1)).value == 2
    assert msd_gamma_t_edge(path(4), (1, 2)).value == 1


def test_msd_edge_missing():
    # refused at every cap, also where the search builds no subdivided graph
    for e in ((0, 2), (0, 99), (-1, 0), (2, 2)):
        for cap in (3, 0, -2):
            with pytest.raises(errors.EdgeNotPresent, match=r"edge \(.*\) not in graph"):
                msd_gamma_t_edge(path(4), e, cap=cap)


def test_msd_edge_missing_is_refused_before_any_search_state(monkeypatch):
    # the edge is checked before the state's BFS and solve, so a graph the
    # state would refuse, too small or disconnected, is refused for its edge
    for g in (from_edge_list(1, []), from_edge_list(4, [(0, 1), (2, 3)])):
        with pytest.raises(errors.EdgeNotPresent, match=r"^edge \(0, 2\) not in graph$"):
            msd_gamma_t_edge(g, (2, 0))

    def refusing(*args, **kwargs):
        raise AssertionError("a search state was made")

    monkeypatch.setattr(subdivision, "SearchState", refusing)
    with pytest.raises(errors.EdgeNotPresent):
        msd_gamma_t_edge(cycle(6), (0, 2))


def test_msd_gamma_t_examples():
    assert msd_gamma_t(complete(4)).value == 2
    assert msd_gamma_t(gstar()).value == 3
    assert msd_gamma_t(wheel(5)).value == 2


def test_sd_gamma_t_examples():
    assert sd_gamma_t(complete(4)).value == 3
    assert sd_gamma_t(gstar()).value == 2
    assert sd_gamma_t(path(7)).value == 2


def test_msd_gamma_examples():
    assert msd_gamma(path(3)).value == 1
    assert msd_gamma(path(4)).value == 3
    assert msd_gamma(cycle(4)).value == 3


def test_sd_gamma_examples():
    assert sd_gamma(path(4)).value == 3
    # one subdivision of K3 yields C4 whose domination number is already 2
    assert sd_gamma(complete(3)).value == 1
    assert sd_gamma(path(6)).value == 1


def test_disconnected_and_small_inputs(monkeypatch):
    disconnected = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(errors.Disconnected):
        msd_gamma_t(disconnected)
    with pytest.raises(errors.Disconnected):
        sd_gamma_t(disconnected)
    # sd refuses K2 before it solves anything
    monkeypatch.setattr(subdivision, "_min_cover", None)
    for search in (sd_gamma_t, sd_gamma):
        with pytest.raises(errors.TooSmall, match="need n >= 3, got n=2"):
            search(from_edge_list(2, [(0, 1)]))


def test_msd_k2_is_three():
    assert msd_gamma_t(from_edge_list(2, [(0, 1)])).value == 3


def test_cap_is_caller_visible():
    r = msd_gamma_t_edge(cycle(6), (0, 1), cap=2)
    assert r.exceeded and r.value is None
    r = sd_gamma_t(path(6), cap=2)
    assert r.exceeded  # sd of P6 is 3


def test_witness_reproduces_increase():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(3, 8)
        g = from_edge_list(n, random_connected_edges(n, rng))
        r = msd_gamma_t(g)
        assert r.value is not None
        (edge,) = r.witness_edges
        (t,) = r.witness_t
        assert t == r.value
        assert gamma_t_value(subdivide(g, edge, t)) == r.increased_value
        assert r.increased_value > r.base_value
        # no earlier count on the witness edge increases
        for earlier in range(1, t):
            assert gamma_t_value(subdivide(g, edge, earlier)) == r.base_value

        s = sd_gamma_t(g)
        assert s.value is not None
        assert gamma_t_value(subdivide_edges(g, s.witness_edges)) == s.increased_value
        assert s.increased_value > s.base_value


def test_sd_witness_is_first_lexicographic():
    r = sd_gamma_t(complete(4))
    assert r.witness_edges == ((0, 1), (0, 2), (0, 3))


def test_values_match_naive_search():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.randrange(3, 8)
        g = from_edge_list(n, random_connected_edges(n, rng))
        edges = g.edges()
        assert msd_gamma_t(g).value == naive_msd(n, edges)
        assert sd_gamma_t(g, cap=3).value == naive_sd(n, edges, cap=3)
        assert msd_gamma(g).value == naive_msd(n, edges, total=False)
        assert sd_gamma(g, cap=3).value == naive_sd(n, edges, total=False, cap=3)


def test_sd_one_iff_msd_one():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(3, 8)
        g = from_edge_list(n, random_connected_edges(n, rng))
        assert (sd_gamma_t(g, cap=1).value == 1) == (msd_gamma_t(g, cap=1).value == 1)


def test_adjacent_supports_force_sd_one():
    # append a leaf at each endpoint of the inner edge of P4
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    assert sd_gamma_t(g).value == 1


def test_universal_vertex_forces_msd_two():
    for g in (complete(5), star(6), wheel(6)):
        assert msd_gamma_t(g).value == 2


def test_path_cycle_formula_helper():
    assert [path_cycle_formula(n) for n in range(3, 9)] == [2, 1, 1, 3, 2, 1]


def test_base_values_recorded():
    r = msd_gamma_t(path(6))
    assert r.base_value == gamma_t_value(path(6)) == 4
    r = sd_gamma(path(6))
    assert r.base_value == gamma_value(path(6)) == 2


def test_every_raising_row_graph_has_the_base_value_plus_one():
    # a row runs only when the row before raised nothing, so the graph that
    # raises is one single subdivision away from a graph that still has the
    # base value (L2); L1 bounds that one step by 1 for gamma_t, and L4
    # does the same for gamma (ROADMAP item 3)
    graphs = [g for n in range(2, 7) for g in enumerate_connected_graphs(n)]
    graphs += [t for n in range(3, 10) for t in enumerate_trees(n)]
    raised = []
    for g in graphs:
        results = [msd_gamma_t(g), msd_gamma(g)]
        results += [msd_gamma_t_edge(g, e) for e in g.edges()]
        if g.n >= 3:
            results += [sd_gamma_t(g), sd_gamma(g)]
        raised += [r for r in results if r.increased_value is not None]
    assert len(raised) == 2703
    assert all(r.increased_value == r.base_value + 1 for r in raised)


@pytest.mark.parametrize("search, n, expected", [
    (msd_gamma_t, 10, 2),
    (sd_gamma_t, 9, 3),
])
def test_complete_graphs_skip_the_factorial_canonical_path(search, n, expected, monkeypatch):
    # a canonical code of a near-complete graph is factorial in n; the
    # searches must solve subdivided graphs without one, and without filling
    # the global gamma_t cache with them (at most the base graph is added)
    def no_code(*args):
        raise AssertionError("canonical code computed")

    monkeypatch.setattr(canonical, "_search", no_code)
    monkeypatch.setattr(canonical, "tree_code", no_code)
    g = complete(n)
    size_before = gamma_t_value.cache_info().currsize
    start = time.perf_counter()
    assert search(g).value == expected
    assert time.perf_counter() - start < 5.0
    assert gamma_t_value.cache_info().currsize - size_before <= 1


def _trees_and_graphs():
    # every tree of order <= 10 and every connected graph of order <= 6
    for n in range(2, 11):
        yield from enumerate_trees(n)
    for n in range(2, 7):
        yield from enumerate_connected_graphs(n)


def _trees_of_order_11_to_13():
    for n in range(11, 14):
        yield from enumerate_trees(n)


def _connected_of_order_seven():
    # dense graphs, where rows meet subsets with both ends in a closed cover
    return enumerate_connected_graphs(7)


@pytest.mark.parametrize("search, base_fn, solve_fn, graphs", [
    pytest.param(msd_gamma_t, gamma_t_value, solve_gamma_t, _trees_and_graphs,
                 id="msd_gamma_t-gamma_t_value-solve_gamma_t"),
    pytest.param(msd_gamma, gamma_value, gamma_value, _trees_and_graphs,
                 id="msd_gamma-gamma_value-gamma_value"),
    pytest.param(msd_gamma, gamma_value, gamma_value, _trees_of_order_11_to_13,
                 id="msd_gamma-trees_11_to_13", marks=pytest.mark.slow),
    pytest.param(msd_gamma_t, gamma_t_value, solve_gamma_t, _connected_of_order_seven,
                 id="msd_gamma_t-connected_order_seven", marks=pytest.mark.slow),
    pytest.param(msd_gamma, gamma_value, gamma_value, _connected_of_order_seven,
                 id="msd_gamma-connected_order_seven", marks=pytest.mark.slow),
])
def test_count_major_msd_matches_edge_major_reference(search, base_fn, solve_fn, graphs):
    for g in graphs():
        for cap in range(1, 5):
            want = edge_major_msd(
                g.edges(), cap, base_fn(g), lambda e, t: solve_fn(subdivide(g, e, t)),
            )
            assert tuple(search(g, cap)) == want, (g.edges(), cap)


def _sd_reference(g, cap, base_fn, solve_fn, solved):
    def solve_subdivided(subset):
        if subset not in solved:
            solved[subset] = solve_fn(subdivide_edges(g, subset))
        return solved[subset]

    return subset_major_sd(g.edges(), cap, base_fn(g), solve_subdivided)


@pytest.mark.parametrize("search, base_fn, solve_fn, graphs", [
    pytest.param(sd_gamma_t, gamma_t_value, solve_gamma_t, _trees_and_graphs,
                 id="sd_gamma_t-gamma_t_value-solve_gamma_t"),
    pytest.param(sd_gamma, gamma_value, gamma_value, _trees_and_graphs,
                 id="sd_gamma-gamma_value-gamma_value"),
    pytest.param(sd_gamma, gamma_value, gamma_value, _trees_of_order_11_to_13,
                 id="sd_gamma-trees_11_to_13", marks=pytest.mark.slow),
    pytest.param(sd_gamma_t, gamma_t_value, solve_gamma_t, _connected_of_order_seven,
                 id="sd_gamma_t-connected_order_seven", marks=pytest.mark.slow),
    pytest.param(sd_gamma, gamma_value, gamma_value, _connected_of_order_seven,
                 id="sd_gamma-connected_order_seven", marks=pytest.mark.slow),
])
def test_sd_matches_solve_every_subset_reference(search, base_fn, solve_fn, graphs):
    for g in graphs():
        if g.n < 3:
            continue
        solved = {}
        for cap in range(1, 5):
            want = _sd_reference(g, cap, base_fn, solve_fn, solved)
            assert tuple(search(g, cap)) == want, (g.edges(), cap)


def _random_trees():
    # trees of 60, 61 and 62 vertices drawn in that order from one stream
    rng = random.Random(7)
    return [from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)]) for n in (60, 61, 62)]


@pytest.mark.parametrize("index", range(3), ids=["n60", "n61", "n62"])
def test_gamma_searches_of_larger_trees_match_the_references(index):
    # every solve goes through gamma_value's, whose leaf-up cover settles
    # trees; before it, a search without the forced supports took seconds
    # on each of these trees
    g = _random_trees()[index]
    start = time.process_time()
    got = tuple(msd_gamma(g)), tuple(sd_gamma(g, 3))
    assert time.process_time() - start < 1.0
    base = gamma_value(g)
    assert got == (
        edge_major_msd(g.edges(), 3, base, lambda e, t: gamma_value(subdivide(g, e, t))),
        _sd_reference(g, 3, gamma_value, gamma_value, {}),
    )


def test_sd_and_msd_sharing_one_state_match_the_references():
    # either search may fill the state first; the other must not be misled
    for g in _trees_and_graphs():
        if g.n < 3:
            continue
        sd_want = _sd_reference(g, 3, gamma_t_value, solve_gamma_t, {})
        msd_want = edge_major_msd(
            g.edges(), 4, gamma_t_value(g), lambda e, t: solve_gamma_t(subdivide(g, e, t)),
        )
        state = SearchState(g)
        assert tuple(sd_gamma_t(g, 3, memo=state)) == sd_want, g.edges()
        assert tuple(msd_gamma_t(g, 4, memo=state)) == msd_want, g.edges()
        state = SearchState(g)
        assert tuple(msd_gamma_t(g, 4, memo=state)) == msd_want, g.edges()
        assert tuple(sd_gamma_t(g, 3, memo=state)) == sd_want, g.edges()


@pytest.mark.parametrize("total", [True, False], ids=["total", "closed"])
def test_state_covers_are_minimum_covers_of_their_graph(total):
    # every tree of order <= 10 and every connected graph of order <= 6: the
    # state's one cover, which the searches read and never change
    dominates = is_total_dominating if total else is_dominating
    for g in _trees_and_graphs():
        if g.n < 3:
            continue
        state = SearchState(g) if total else SearchState(g, cover_sets=_closed_covers)
        cover = state.cover
        assert not cover >> g.n, g.edges()
        assert cover.bit_count() == state.base
        assert dominates(g, iter_bits(cover)), g.edges()
        subdivision._sd(state, 3)
        subdivision._msd(state, 3)
        assert state.cover == cover, g.edges()


def test_state_serves_one_graph():
    state = SearchState(path(5))
    sd_gamma_t(path(5), memo=state)
    with pytest.raises(ValueError):
        msd_gamma_t(path(6), memo=state)
    assert msd_gamma_t(path(5), memo=state) == msd_gamma_t(path(5))


@pytest.mark.parametrize("search", [sd_gamma_t, msd_gamma_t])
def test_state_serves_one_kind_of_domination(search):
    # a state of closed covers would answer for gamma: 1 on P6, where sd_t
    # and msd_t are 3
    closed = SearchState(path(6), cover_sets=_closed_covers)
    with pytest.raises(ValueError, match="one kind of domination"):
        search(path(6), memo=closed)
    with pytest.raises(ValueError, match="one graph"):
        search(path(5), memo=SearchState(path(6)))
    assert search(path(6), memo=SearchState(path(6))).value == 3


def _covered(covers, cover):
    """The union of the cover sets of the vertices of the mask cover."""
    out = 0
    for c in iter_bits(cover):
        out |= covers[c]
    return out


def test_rows_over_the_vertex_cap_fail():
    # sd's row of edge pairs and msd's row at t = 3 are the first over the cap
    with pytest.raises(errors.TooLarge, match="subdivision would need 65 vertices"):
        sd_gamma_t(path(63), cap=2)
    with pytest.raises(errors.TooLarge, match="subdivision would need 65 vertices"):
        msd_gamma_t(path(62))


def test_row_over_the_cap_fails_at_a_subset_the_cover_settles(builds, monkeypatch):
    # the state's cover of C6 covers it with (0, 5) subdivided once or twice,
    # so a row that tested the cover before the size would skip t = 1 and 2
    # and fail only at t = 3, needing 9 vertices
    g, e = cycle(6), (0, 5)
    cover = SearchState(g).cover
    for t in (1, 2):
        h = subdivide(g, e, t)
        assert _covered(_total_covers(h), cover) == h.full_mask
    builds.clear()
    monkeypatch.setattr(subdivision, "MAX_VERTICES", g.n)
    with pytest.raises(errors.TooLarge, match="subdivision would need 7 vertices"):
        msd_gamma_t_edge(g, e)
    assert builds == []


def test_bound_state_still_checks_the_order():
    # a state of K2 serves msd, and sd must still refuse K2
    state = SearchState(path(2))
    assert msd_gamma_t(path(2), memo=state).value == 3
    with pytest.raises(errors.TooSmall, match="need n >= 3, got n=2"):
        sd_gamma_t(path(2), memo=state)


@pytest.mark.parametrize("search", [sd_gamma_t, msd_gamma_t])
def test_fresh_state_refuses_a_disconnected_graph(search):
    # the state a search makes for itself refuses the graph, as one made
    # by its caller does
    g = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(errors.Disconnected, match="need a connected graph"):
        SearchState(g)
    with pytest.raises(errors.Disconnected, match="need a connected graph"):
        search(g)
    with pytest.raises(errors.TooSmall, match="need n >= 2, got n=1"):
        SearchState(from_edge_list(1, []))


@pytest.mark.parametrize("cover_sets", [_total_covers, _closed_covers], ids=["total", "closed"])
def test_state_reads_connectivity_off_its_order(cover_sets):
    # 2K2, K1 + K2 with the isolated vertex first and last, and P3 + K2
    # with the components' labels interleaved; K1 is too small before any
    # check of its connectivity
    for n, edges in ((4, [(0, 1), (2, 3)]), (3, [(1, 2)]), (3, [(0, 1)]),
                     (5, [(0, 2), (2, 4), (1, 3)])):
        with pytest.raises(errors.Disconnected,
                           match="^subdivision invariants need a connected graph$"):
            SearchState(from_edge_list(n, edges), cover_sets=cover_sets)
    with pytest.raises(errors.TooSmall, match="^need n >= 2, got n=1$"):
        SearchState(from_edge_list(1, []), cover_sets=cover_sets)


def _tree_rows(hi):
    """(tree, generated, cover sets, subset, t) for every subset a row
    tries on every tree of order 2 to hi: single edges at t = 1, 2, 3 and
    edge pairs and triples at t = 1, with total and closed cover sets.

    Each tree comes in its own labels, generated, and in a random
    relabelling.  The generator labels every parent below its children, so
    in its labels each edge (u, v), u < v, has u as v's parent, and the rows
    splice; relabelled, v is u's parent on some edges.
    """
    rng = random.Random(35)
    for n in range(2, hi + 1):
        for tree in enumerate_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for g, generated in ((tree, True), (tree.relabel(perm), False)):
                edges = g.edges()
                tries = [((e,), t) for e in edges for t in (1, 2, 3)]
                tries += [(subset, 1) for k in (2, 3) for subset in combinations(edges, k)]
                for cover_sets in (_total_covers, _closed_covers):
                    for subset, t in tries:
                        yield g, generated, cover_sets, subset, t


def _check_spliced_walks(hi):
    """The wired cover sets of every subdivided tree of _tree_rows(hi), in
    both labellings, against the graph the public builders build: the
    state's cover sets with the new paths wired in are that graph's.  In
    the generator's labels the walk in the state's order with the paths
    spliced in too, walked whether or not the state's cover settles it: its
    cover and packing both have the size of that graph's minimum.  Returns
    how many were wired and how many walked.
    """
    wired = walked = 0
    state = None
    for g, generated, cover_sets, subset, t in _tree_rows(hi):
        if state is None or state.graph != g or state.sets != cover_sets(g):
            state = SearchState(g, cover_sets=cover_sets)
        h = subdivide_edges(g, subset) if t == 1 else subdivide(g, subset[0], t)
        covers = list(state.sets)
        paths = graph._wire(covers, subset, t)
        assert covers == list(cover_sets(h)), (g.edges(), subset, t)
        wired += 1
        if not generated:
            continue
        cover, packing = _walk(covers, subdivision._splice(state.order, paths, t))
        assert _covered(covers, cover) == h.full_mask
        minimum = _min_cover(covers)[0]
        assert cover.bit_count() == packing.bit_count() == minimum, (g.edges(), subset, t)
        walked += 1
    return wired, walked


def test_spliced_walk_is_exact_on_subdivided_trees_through_order_nine():
    # 15,484 subdivided trees in each labelling, walked in the generator's
    assert _check_spliced_walks(9) == (2 * 15484, 15484)


@pytest.mark.slow
def test_spliced_walk_is_exact_on_subdivided_trees_through_order_twelve():
    assert _check_spliced_walks(12) == (2 * 417104, 417104)


def test_splice_replaces_each_child_by_its_path():
    # parents 0, 1, 2, 1, 0 of vertices 1 to 5, each below its child, so
    # vertex v stands at index 5 - v of the order.  Each subset's edges come
    # in lexicographic order with their children descending, so the paths
    # must be spliced from the last one back
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (1, 4), (0, 5)])
    order = SearchState(g).order
    assert order == [(5, 1 << 0), (4, 1 << 1), (3, 1 << 2), (2, 1 << 1), (1, 1 << 0), (0, 0)]
    cases = [
        # 0-6-5 and 2-7-3
        (((0, 5), (2, 3)), 1, [(0, 5, 6), (2, 3, 7)],
         [(5, 1 << 6), (6, 1 << 0), (4, 1 << 1), (3, 1 << 7), (7, 1 << 2), (2, 1 << 1),
          (1, 1 << 0), (0, 0)]),
        # 0-6-5, 1-7-4 and 2-8-3
        (((0, 5), (1, 4), (2, 3)), 1, [(0, 5, 6), (1, 4, 7), (2, 3, 8)],
         [(5, 1 << 6), (6, 1 << 0), (4, 1 << 7), (7, 1 << 1), (3, 1 << 8), (8, 1 << 2),
          (2, 1 << 1), (1, 1 << 0), (0, 0)]),
        # 1-6-7-8-4
        (((1, 4),), 3, [(1, 4, 6)],
         [(5, 1 << 0), (4, 1 << 8), (8, 1 << 7), (7, 1 << 6), (6, 1 << 1), (3, 1 << 2),
          (2, 1 << 1), (1, 1 << 0), (0, 0)]),
    ]
    for subset, t, paths, spliced in cases:
        covers = list(g.adj)
        assert graph._wire(covers, subset, t) == paths
        assert subdivision._splice(order, paths, t) == spliced
        assert order == SearchState(g).order
        cover, packing = _walk(covers, spliced)
        assert cover.bit_count() == packing.bit_count() == solve_gamma_t(
            subdivide_edges(g, subset) if t == 1 else subdivide(g, subset[0], t))


def test_every_tree_the_program_makes_is_spliced():
    # the rows splice only a tree with each vertex's parent below it, and
    # every tree the program makes is labelled so: the tree generator's, the
    # trees among the connected graphs, the family's members, and paths and
    # stars.  A generator that lost those labels would lose the splice too
    trees = [t for n in range(2, 13) for t in enumerate_trees(n)]
    connected = [g for n in range(2, 8) for g in enumerate_connected_graphs(n) if g.is_tree()]
    members = [member.tree for member in generate_family(14)]
    built = [build(n) for build in (path, star) for n in range(2, 13)]
    assert (len(trees), len(connected)) == (986, 24)
    for t in trees + connected + members + built:
        for cover_sets in (_total_covers, _closed_covers):
            assert SearchState(t, cover_sets=cover_sets).order is not None, t.edges()


@pytest.fixture
def work(monkeypatch):
    """Counts how the rows settle the subdivided graphs their state's cover
    misses: "walk" for each tree's graph walked in its tree's order, "solve"
    for each graph solved without such a walk, in its own leaf-up order.

    Each solve stops at the base of its search state; the one solve that
    makes a search state has no stop and is not counted.
    """
    count = {"walk": 0, "solve": 0}

    def solving(covers, stop=0, order=None):
        if stop:
            count["solve" if order is None else "walk"] += 1
        return _min_cover(covers, stop, order)

    monkeypatch.setattr(subdivision, "_min_cover", solving)
    return count


def _work_of(work, fn, *args, **kwargs):
    """The walks and solves of one call, together."""
    before = work["walk"] + work["solve"]
    fn(*args, **kwargs)
    return work["walk"] + work["solve"] - before


def test_tree_check_gets_msd_free_on_sd_one_trees(work):
    sd_one = [t for t in enumerate_trees(9) if sd_gamma_t(t, cap=1).value == 1]
    assert sd_one
    for t in sd_one:
        alone = _work_of(work, sd_gamma_t, t, cap=3)
        assert _work_of(work, verify._check_tree_sd_eq_msd, t) <= alone


def test_tree_check_keeps_no_memo_between_checks(work):
    for t in enumerate_trees(8):
        first = _work_of(work, verify._check_tree_sd_eq_msd, t)
        assert first > 0
        assert _work_of(work, verify._check_tree_sd_eq_msd, t) == first


def test_memo_does_not_change_results():
    # every tree of order 3..10 and every connected graph of order 3..6
    for g in _trees_and_graphs():
        if g.n < 3:
            continue
        memo = SearchState(g)
        assert sd_gamma_t(g, cap=3, memo=memo) == sd_gamma_t(g, cap=3)
        assert msd_gamma_t(g, memo=memo) == msd_gamma_t(g)
        # a state filled by the other search first gives the same results
        memo = SearchState(g)
        assert msd_gamma_t(g, cap=4, memo=memo) == msd_gamma_t(g, cap=4)
        assert sd_gamma_t(g, memo=memo) == sd_gamma_t(g)


def test_strong_support_lemma():
    # the lemma the any-witness rows try first (README): at a strong support
    # s with leaves l1 and l2 of an isolate-free graph, subdividing s l1 and
    # s l2 once each, or s l1 twice, raises gamma_t and gamma.  Checked by
    # solves alone, with no search, at every pair of leaves of every strong
    # support of every tree of order 3 to 12 and every other connected graph
    # of order 3 to 7
    graphs = [g for n in range(3, 13) for g in enumerate_trees(n)]
    graphs += [g for n in range(3, 8) for g in enumerate_connected_graphs(n) if not g.is_tree()]
    supports = 0
    for g in graphs:
        base_t, base = solve_gamma_t(g), gamma_value(g)
        leaves = leaves_mask(g)
        for s in range(g.n):
            at = list(iter_bits(g.adj[s] & leaves))
            if len(at) < 2:
                continue
            supports += 1
            for leaf in at:
                h = subdivide(g, (s, leaf), 2)
                assert solve_gamma_t(h) > base_t and gamma_value(h) > base, (g.edges(), s, leaf)
            for pair in combinations(at, 2):
                h = subdivide_edges(g, [(s, leaf) for leaf in pair])
                assert solve_gamma_t(h) > base_t and gamma_value(h) > base, (g.edges(), s, pair)
    assert supports == 1351


def _check_any_witness_states(trees, graphs, monkeypatch):
    """An any-witness state and a default one of each generated tree, the
    tree with its labels reversed, and each graph give sd_gamma_t and
    msd_gamma_t at cap 3 the same value and base, and each any-witness
    witness that is built has the increased value as its gamma_t.  The
    states of a generated tree, labelled in preorder, keep its order, and
    neither they nor their rows run a BFS: every row splices.  Reversed,
    the root comes last with two or more neighbours below it, so each state
    keeps no order, and its solve and rows walk each graph in that graph's
    own order; the default searches still give the generated tree's value,
    base and increased value.  No tree's search runs a branch-and-bound."""
    # the order of each BFS's graph
    bfs = []
    searches = [0]
    leaf_order = domination._leaf_order
    search_of = domination._search

    def counting(covers):
        bfs.append(len(covers))
        return leaf_order(covers)

    def searching(*args, **kwargs):
        searches[0] += 1
        return search_of(*args, **kwargs)

    monkeypatch.setattr(domination, "_leaf_order", counting)
    monkeypatch.setattr(domination, "_search", searching)

    def check(g):
        """(value, base, increased value) of g's default searches, each
        checked against an any-witness search, which of g's states kept
        no order, and the orders of the graphs their searches ran a BFS
        of."""
        results = []
        unordered = set()
        searched = []
        for search in (sd_gamma_t, msd_gamma_t):
            mark = len(bfs)
            default, any_witness = SearchState(g), SearchState(g, any_witness=True)
            unordered |= {default.order is None, any_witness.order is None}
            want = search(g, cap=3, memo=default)
            got = search(g, cap=3, memo=any_witness)
            searched += bfs[mark:]
            assert (got.value, got.base_value) == (want.value, want.base_value), g.edges()
            results.append((want.value, want.base_value, want.increased_value))
            if got.value is None:
                continue
            if search is sd_gamma_t:
                h = subdivide_edges(g, got.witness_edges)
            else:
                h = subdivide(g, got.witness_edges[0], got.witness_t[0])
            assert solve_gamma_t(h) == got.increased_value, (g.edges(), got)
        return results, unordered, searched

    for t in trees:
        want, unordered, searched = check(t)
        assert unordered == {False} and searched == [], t.edges()
        got, unordered, searched = check(t.relabel(range(t.n - 1, -1, -1)))
        assert got == want and unordered == {True}, t.edges()
        # one BFS of the tree for each of the four states' solves; the rest
        # are the rows' subdivided trees, each larger
        assert searched.count(t.n) == 4, t.edges()
    assert searches[0] == 0
    for g in graphs:
        check(g)
    return 2 * len(trees) + len(graphs)


def test_any_witness_states_agree_with_default_states(monkeypatch):
    trees = [t for n in range(3, 13) for t in enumerate_trees(n)]
    graphs = [g for n in range(3, 7) for g in enumerate_connected_graphs(n)]
    assert _check_any_witness_states(trees, graphs, monkeypatch) == 2 * 985 + 141


@pytest.mark.slow
def test_any_witness_states_agree_with_default_states_on_trees_13_to_16(monkeypatch):
    trees = [t for n in range(13, 17) for t in enumerate_trees(n)]
    assert _check_any_witness_states(trees, [], monkeypatch) == 2 * 31521


_SD_ONE_WORK = [
    # 0/1,562, 0/515 and 0/1,546 seeds when the enumerated minimum sets of
    # each graph were its state's known covers, so no state solved its graph.
    # 1,817, 666 and 1,769 solves when every graph was built and solved; a
    # tree's graphs are walked in its order instead, one walk for each solve,
    # and the rest are solved in their own order, unbuilt
    ("sd1-characterization", 985, 1817, 0),
    ("lemma14-implies", 88, 666, 0),
    ("lemma2-implies", 1396, 1166, 603),
]


# the ids keep the seeds and the walks and solves together
@pytest.mark.parametrize("theorem, seeds, walks, solved", _SD_ONE_WORK, ids=[
    f"{theorem}-{seeds}-{walks + solved}" for theorem, seeds, walks, solved in _SD_ONE_WORK
])
def test_sd_one_seed_and_subdivided_solves_are_pinned(theorem, seeds, walks, solved, monkeypatch):
    # each sd = 1 search solves its graph once for the state's base and
    # cover, then solves every subdivided graph that cover does not settle:
    # on a tree with the walk in its tree's order, elsewhere in its own
    calls = {"seed": 0, "walk": 0, "subdivided": 0}

    def counting(covers, stop=0, order=None):
        if not stop:
            calls["seed"] += 1
        elif order is None:
            calls["subdivided"] += 1
        else:
            calls["walk"] += 1
        return _min_cover(covers, stop, order)

    monkeypatch.setattr(subdivision, "_min_cover", counting)
    monkeypatch.setattr(verify, "_sd1", verify._sd1.__wrapped__)
    assert verify.run_verification(theorem).ok
    assert calls == {"seed": seeds, "walk": walks, "subdivided": solved}


def test_tree_check_runs_no_branch_and_bound(monkeypatch):
    # 4,272 searches before the leaf-up cover and packing settled every solve
    calls = [0]
    search = domination._search

    def counting(*args, **kwargs):
        calls[0] += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(domination, "_search", counting)
    assert verify.run_verification("tree-sd-eq-msd", 12).ok
    assert calls[0] == 0


@pytest.fixture
def builds(monkeypatch):
    """One entry per subdivided Graph built, by subdivide, subdivide_edges
    or any other caller of the builder they share: its edges and count."""
    built = []
    subdivided = graph._subdivided

    def recording(g, edges, t):
        built.append((tuple(edges), t))
        return subdivided(g, edges, t)

    monkeypatch.setattr(graph, "_subdivided", recording)
    return built


@pytest.mark.parametrize("cover_sets", [_total_covers, _closed_covers], ids=["total", "closed"])
def test_row_builds_exactly_the_graphs_the_state_cover_misses(cover_sets, builds, work):
    # every subset a row tries, on every tree of order <= 10 and connected
    # graph of order <= 6: single edges at t = 1, 2, 3 and edge pairs and
    # triples at t = 1.  The row's test at the subdivided edges must pass on
    # exactly the graphs the state's cover misses some vertex of: on a tree
    # the row solves each of them with its walk in its tree's order,
    # elsewhere in its own order, and it builds none of them
    settled = {1: 0, 2: 0, 3: 0}
    for g in _trees_and_graphs():
        tree = g.is_tree()
        state = SearchState(g, cover_sets=cover_sets)
        tries = [((e,), t) for e in state.edges for t in (1, 2, 3)]
        tries += [(subset, 1) for k in (2, 3) for subset in combinations(state.edges, k)]
        for subset, t in tries:
            h = subdivide_edges(g, subset) if t == 1 else subdivide(g, subset[0], t)
            misses = _covered(cover_sets(h), state.cover) != h.full_mask
            builds.clear()
            work.update(walk=0, solve=0)
            subdivision._row(state, [subset], t)
            want = {"walk": misses, "solve": 0} if tree else {"walk": 0, "solve": misses}
            assert work == want, (g.edges(), subset, t)
            assert builds == [], (g.edges(), subset, t)
            settled[t] += not misses
    # the test settles graphs at t = 1 and 2, and none at t = 3
    assert settled[1] and settled[2] and not settled[3], settled


def test_tree_check_builds_each_single_subdivision_once(builds, monkeypatch):
    # sd runs the row of single subdivisions first, and msd reads how it
    # ended: msd walks graphs at t >= 2 only, and no row builds a graph.
    # A tree's order names the tree, its parents being the masks above
    walked = []
    splice = subdivision._splice

    def recording(order, paths, t):
        walked.append((tuple(order), tuple(paths), t))
        return splice(order, paths, t)

    monkeypatch.setattr(subdivision, "_splice", recording)
    for (t,) in verify._trees(3, 10):
        verify._check_tree_sd_eq_msd(t)
    singles = [w for w in walked if len(w[1]) == 1 and w[2] == 1]
    assert len(set(singles)) == len(singles)
    assert any(w[2] > 1 for w in walked)
    assert builds == []


def test_tree_check_subdivided_graphs_built_are_pinned(builds, work):
    # 7,696 builds when msd rebuilt the row of single subdivisions sd had
    # settled.  4,712 builds and solves when every graph was built and
    # solved before the state's cover was tested; the state's minimum cover
    # of the tree settles the rest, so skipping less raises it.  3,393
    # solves when each solve of a subdivided graph that stayed at the base
    # added its cover to the state's known covers.  3,428 when every graph
    # the cover missed was built and solved; now each of those is walked in
    # its tree's order, none is solved without that walk, and no graph is
    # built.  3,428 walks when sd's row of edge pairs and msd's row at t = 2
    # ran in lexicographic order; the check's any-witness state tries the
    # strong-support lemma's subsets first, and each settles its row
    for (t,) in verify._trees(3, 12):
        verify._check_tree_sd_eq_msd(t)
    assert len(builds) == 0
    assert work == {"walk": 2284, "solve": 0}


_FROZEN = [
    # taken before the searches shared their first row and lifted covers
    ("tree-sd-eq-msd", 12, 985, "236216eb797e9d23881bdfad0b86c6ec9ded0a2560dd4110c9a7f4bf6c438634"),
    # every theorem at its default n_max, taken before each SearchState was
    # bound to its graph when made
    ("bc-minimum", None, 15, "ad2cc2d030322cfb1df35bdc8a1b46b47b330564526ffc7568b02fb61b13e3bc"),
    ("family-sd3", None, 5445, "0a99fce51606c2a3d7b0d1af1e3515fbfdf20b5085d938c5032b688b56bf8dc6"),
    ("lemma14-implies", None, 985, "163ba2b1c8496874378e2315b9dd6dc27bb36e6abc992c59d1ccb922cb2a14f3"),
    ("lemma2-implies", None, 1979, "d45ff5a6e67eb56859f9990fe36551a20a7fd285e98c51f2a27424b5a112b38e"),
    ("msd-le-3", None, 995, "e636ce0ab6e8f3671a4e0e4c8eeafd23de9fe778ae1dd2846281303535d44dbb"),
    ("path-cycle-formulas", None, 28, "7c3b13343d51265bdb1b84d7da568aa5c1006a37444d8ce4e56684e07b2d5a18"),
    ("sd1-characterization", None, 985, "d769a63e7f2defcdb83005d51e55cdbffe632131ca532b09d084b044a30df2a7"),
    ("strong-support", None, 5445, "dbda59e6380230fefe3f82cd3e380037039f79b1c00c52902947dffd0d8322fc"),
    ("tree-sd-eq-msd", None, 5445, "2b6b8c35bf1c284582b5aae9b1a52aac0ec59e7f632d03fe65f398c877c78369"),
    ("universal-vertex", None, 994, "4375fcdf2909c3f2f913e26d267235abca84575034dcd98d4d807a46f71d2389"),
]


@pytest.mark.parametrize("theorem, n_max, count, digest", _FROZEN, ids=[
    theorem if n_max is None else f"{theorem}-{n_max}" for theorem, n_max, _, _ in _FROZEN
])
def test_records_are_frozen(theorem, n_max, count, digest, builds):
    # sha256 of every record of the sweep, one line each; no sweep builds a
    # subdivided graph
    records = verify.run_verification(theorem, n_max, records=True).records
    lines = "\n".join(f"{r.graph6} {r.ok} {r.expected} {r.actual}" for r in records)
    assert builds == []
    assert len(records) == count
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
