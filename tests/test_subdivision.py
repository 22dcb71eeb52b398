import hashlib
import random
import time

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
from tdmsd import canonical, domination, subdivision, verify
from tdmsd.domination import (
    _closed_covers,
    _min_cover,
    is_dominating,
    is_total_dominating,
    solve_gamma_t,
)
from tdmsd.graph import iter_bits
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


@pytest.mark.parametrize("search, base_fn, solve_fn, graphs", [
    pytest.param(msd_gamma_t, gamma_t_value, solve_gamma_t, _trees_and_graphs,
                 id="msd_gamma_t-gamma_t_value-solve_gamma_t"),
    pytest.param(msd_gamma, gamma_value, gamma_value, _trees_and_graphs,
                 id="msd_gamma-gamma_value-gamma_value"),
    pytest.param(msd_gamma, gamma_value, gamma_value, _trees_of_order_11_to_13,
                 id="msd_gamma-trees_11_to_13", marks=pytest.mark.slow),
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


@pytest.fixture
def solves(monkeypatch):
    """Counts the solves of subdivided graphs.

    Each of them stops at the base of its search state; the one solve that
    makes a search state has no stop and is not counted.
    """
    count = [0]

    def counting(covers, full, leaves=0, stop=0):
        if stop:
            count[0] += 1
        return _min_cover(covers, full, leaves, stop)

    monkeypatch.setattr(subdivision, "_min_cover", counting)
    return count


def _solves_of(solves, fn, *args, **kwargs):
    before = solves[0]
    fn(*args, **kwargs)
    return solves[0] - before


def test_tree_check_gets_msd_free_on_sd_one_trees(solves):
    sd_one = [t for t in enumerate_trees(9) if sd_gamma_t(t, cap=1).value == 1]
    assert sd_one
    for t in sd_one:
        alone = _solves_of(solves, sd_gamma_t, t, cap=3)
        assert _solves_of(solves, verify._check_tree_sd_eq_msd, t) <= alone


def test_tree_check_keeps_no_memo_between_checks(solves):
    for t in enumerate_trees(8):
        first = _solves_of(solves, verify._check_tree_sd_eq_msd, t)
        assert first > 0
        assert _solves_of(solves, verify._check_tree_sd_eq_msd, t) == first


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


@pytest.mark.parametrize("theorem, seeds, solved", [
    # 0/1,562, 0/515 and 0/1,546 when the enumerated minimum sets of each
    # graph were its state's known covers, so no state solved its graph
    ("sd1-characterization", 985, 1817),
    ("lemma14-implies", 88, 666),
    ("lemma2-implies", 1396, 1769),
])
def test_sd_one_seed_and_subdivided_solves_are_pinned(theorem, seeds, solved, monkeypatch):
    # each sd = 1 search solves its graph once for the state's base and
    # cover, then every subdivided graph that cover does not settle
    calls = {"seed": 0, "subdivided": 0}

    def counting(covers, full, leaves=0, stop=0):
        calls["subdivided" if stop else "seed"] += 1
        return _min_cover(covers, full, leaves, stop)

    monkeypatch.setattr(subdivision, "_min_cover", counting)
    monkeypatch.setattr(verify, "_sd1", verify._sd1.__wrapped__)
    assert verify.run_verification(theorem).ok
    assert calls == {"seed": seeds, "subdivided": solved}


def test_tree_check_subdivided_solves_are_pinned(solves):
    # 4,712 at the search that solved every subdivided graph it met; the
    # state's minimum cover of the tree settles the rest, so skipping less
    # raises it.  3,393 when each solve of a subdivided graph that stayed at
    # the base added its cover to the state's known covers
    for (t,) in verify._trees(3, 12):
        verify._check_tree_sd_eq_msd(t)
    assert solves[0] == 3428


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
    """One entry per subdivided graph built: the count t of a subdivide call,
    the edge tuple of a subdivide_edges call."""
    built = []
    by_count, by_subset = subdivision.subdivide, subdivision.subdivide_edges

    def counting(g, e, t):
        built.append(t)
        return by_count(g, e, t)

    def counting_edges(g, edges):
        built.append(tuple(edges))
        return by_subset(g, edges)

    monkeypatch.setattr(subdivision, "subdivide", counting)
    monkeypatch.setattr(subdivision, "subdivide_edges", counting_edges)
    return built


def test_tree_check_builds_each_single_subdivision_once(builds):
    # sd runs the row of single subdivisions first, and msd reads how it
    # ended: msd builds graphs at t >= 2 only
    for (t,) in verify._trees(3, 10):
        verify._check_tree_sd_eq_msd(t)
    counts = [b for b in builds if isinstance(b, int)]
    assert counts and 1 not in counts


def test_tree_check_subdivided_graphs_built_are_pinned(builds):
    # 7,696 when msd rebuilt the row of single subdivisions sd had settled
    for (t,) in verify._trees(3, 12):
        verify._check_tree_sd_eq_msd(t)
    assert len(builds) == 4712


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
def test_records_are_frozen(theorem, n_max, count, digest):
    # sha256 of every record of the sweep, one line each
    records = verify.run_verification(theorem, n_max).records
    lines = "\n".join(f"{r.graph6} {r.ok} {r.expected} {r.actual}" for r in records)
    assert len(records) == count
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
