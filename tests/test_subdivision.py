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
from tdmsd import canonical, subdivision, verify
from tdmsd.domination import (
    _all_min_tds_masks,
    _closed_covers,
    _min_cover,
    is_dominating,
    is_total_dominating,
    solve_gamma_t,
)
from tdmsd.graph import iter_bits
from tdmsd.subdivision import SearchState, seeded_state
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
    with pytest.raises(errors.EdgeNotPresent):
        msd_gamma_t_edge(path(4), (0, 2))


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


def test_disconnected_and_small_inputs():
    disconnected = from_edge_list(4, [(0, 1), (2, 3)])
    with pytest.raises(errors.Disconnected):
        msd_gamma_t(disconnected)
    with pytest.raises(errors.Disconnected):
        sd_gamma_t(disconnected)
    with pytest.raises(errors.TooSmall):
        sd_gamma_t(from_edge_list(2, [(0, 1)]))


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
    for n in range(2, 11):
        yield from enumerate_trees(n)
    for n in range(2, 7):
        yield from enumerate_connected_graphs(n)


@pytest.mark.parametrize("search, base_fn, solve_fn", [
    (msd_gamma_t, gamma_t_value, solve_gamma_t),
    (msd_gamma, gamma_value, gamma_value),
])
def test_count_major_msd_matches_edge_major_reference(search, base_fn, solve_fn):
    # every tree of order <= 10 and every connected graph of order <= 6
    for g in _trees_and_graphs():
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


@pytest.mark.parametrize("search, base_fn, solve_fn", [
    (sd_gamma_t, gamma_t_value, solve_gamma_t),
    (sd_gamma, gamma_value, gamma_value),
])
def test_sd_matches_solve_every_subset_reference(search, base_fn, solve_fn):
    # every tree of order <= 10 and every connected graph of order <= 6
    for g in _trees_and_graphs():
        if g.n < 3:
            continue
        solved = {}
        for cap in range(1, 5):
            want = _sd_reference(g, cap, base_fn, solve_fn, solved)
            assert tuple(search(g, cap)) == want, (g.edges(), cap)


def test_sd_and_msd_sharing_one_state_match_the_references():
    # either search may fill the state first; the other must not be misled
    for g in _trees_and_graphs():
        if g.n < 3:
            continue
        sd_want = _sd_reference(g, 3, gamma_t_value, solve_gamma_t, {})
        msd_want = edge_major_msd(
            g.edges(), 4, gamma_t_value(g), lambda e, t: solve_gamma_t(subdivide(g, e, t)),
        )
        state = SearchState()
        assert tuple(sd_gamma_t(g, 3, memo=state)) == sd_want, g.edges()
        assert tuple(msd_gamma_t(g, 4, memo=state)) == msd_want, g.edges()
        state = SearchState()
        assert tuple(msd_gamma_t(g, 4, memo=state)) == msd_want, g.edges()
        assert tuple(sd_gamma_t(g, 3, memo=state)) == sd_want, g.edges()


@pytest.mark.parametrize("total", [True, False], ids=["total", "closed"])
def test_kept_covers_use_a_new_vertex_and_dominate_their_graphs(total):
    # every tree of order <= 10 and every connected graph of order <= 6
    dominates = is_total_dominating if total else is_dominating
    kept = 0
    for g in _trees_and_graphs():
        if g.n < 3:
            continue
        state = SearchState()
        if total:
            sd_gamma_t(g, cap=3, memo=state)
            msd_gamma_t(g, memo=state)
        else:
            subdivision._sd(g, 3, _closed_covers, state)
            subdivision._msd(g, 3, _closed_covers, state)
        for subset, cover in state.kept.items():
            assert cover >> g.n, (g.edges(), subset)
            assert cover.bit_count() == state.base
            assert dominates(subdivide_edges(g, subset), iter_bits(cover)), (g.edges(), subset)
        kept += len(state.kept)
    assert kept


def test_state_serves_one_graph():
    state = SearchState()
    sd_gamma_t(path(5), memo=state)
    with pytest.raises(ValueError):
        msd_gamma_t(path(6), memo=state)
    assert msd_gamma_t(path(5), memo=state) == msd_gamma_t(path(5))


def test_bound_state_still_checks_the_order():
    # msd binds a state to K2, which sd must still refuse
    state = SearchState()
    assert msd_gamma_t(path(2), memo=state).value == 3
    with pytest.raises(errors.TooSmall):
        sd_gamma_t(path(2), memo=state)


@pytest.mark.parametrize("search", [sd_gamma_t, msd_gamma_t])
def test_fresh_state_refuses_a_disconnected_graph(search):
    state = SearchState()
    with pytest.raises(errors.Disconnected):
        search(from_edge_list(4, [(0, 1), (2, 3)]), memo=state)
    assert state.graph is None


def test_seeded_sd_one_matches_the_unseeded_search():
    # every tree of order 3..11 and every connected graph of order 3..6
    graphs = [t for n in range(3, 12) for t in enumerate_trees(n)]
    graphs += [g for n in range(3, 7) for g in enumerate_connected_graphs(n)]
    for g in graphs:
        masks = _all_min_tds_masks(g)
        state = seeded_state(g, masks)
        assert state.base == gamma_t_value(g) and state.covers == list(masks)
        assert tuple(sd_gamma_t(g, cap=1, memo=state)) == tuple(sd_gamma_t(g, cap=1)), g.edges()


def test_seeded_state_drops_bogus_hints():
    g = path(6)  # gamma_t = 4, and {1, 2, 3, 4} is one of its minimum sets
    good = 0b011110
    not_total = 0b001111  # vertex 5 has no neighbour in it
    too_big = 0b111110
    assert is_total_dominating(g, iter_bits(too_big))
    assert not is_total_dominating(g, iter_bits(not_total))
    want = tuple(sd_gamma_t(g, cap=1))
    for hints, kept in (((not_total, too_big), []), ((too_big, good, not_total), [good])):
        state = seeded_state(g, hints)
        assert state.covers == kept
        assert tuple(sd_gamma_t(g, cap=1, memo=state)) == want


def test_seeded_state_refuses_what_a_search_refuses():
    with pytest.raises(errors.Disconnected):
        seeded_state(from_edge_list(4, [(0, 1), (2, 3)]), ())
    with pytest.raises(errors.TooSmall):
        seeded_state(from_edge_list(1, []), ())
    # K2 seeds a state for msd, which sd must still refuse
    state = seeded_state(path(2), _all_min_tds_masks(path(2)))
    with pytest.raises(errors.TooSmall):
        sd_gamma_t(path(2), cap=1, memo=state)
    assert msd_gamma_t(path(2), memo=state) == msd_gamma_t(path(2))


@pytest.fixture
def solves(monkeypatch):
    """Counts the solves of subdivided graphs.

    Each of them starts from a repaired known cover as its upper bound; the
    one solve that seeds a search state has none and is not counted.
    """
    count = [0]

    def counting(covers, full, upper=None):
        if upper is not None:
            count[0] += 1
        return _min_cover(covers, full, upper)

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
        memo = SearchState()
        assert sd_gamma_t(g, cap=3, memo=memo) == sd_gamma_t(g, cap=3)
        assert msd_gamma_t(g, memo=memo) == msd_gamma_t(g)
        # a state filled by the other search first gives the same results
        memo = SearchState()
        assert msd_gamma_t(g, cap=4, memo=memo) == msd_gamma_t(g, cap=4)
        assert sd_gamma_t(g, memo=memo) == sd_gamma_t(g)


@pytest.mark.parametrize("theorem, solved", [
    # 1,793, 650 and 1,785 subdivided graphs, plus one seed solve per search
    # (985, 88 and 1,396), when each search seeded itself with one cover
    ("sd1-characterization", 1562),
    ("lemma14-implies", 515),
    ("lemma2-implies", 1546),
])
def test_sd_one_searches_start_from_the_enumerated_minimum_sets(theorem, solved, monkeypatch):
    # each check enumerated the graph's minimum sets already: they and the
    # gamma_t solve behind them seed the sd = 1 search, which solves no seed
    calls = {"seed": 0, "subdivided": 0}

    def counting(covers, full, upper=None):
        calls["seed" if upper is None else "subdivided"] += 1
        return _min_cover(covers, full, upper)

    monkeypatch.setattr(subdivision, "_min_cover", counting)
    monkeypatch.setattr(verify, "_sd1", verify._sd1.__wrapped__)
    assert verify.run_verification(theorem).ok
    assert calls == {"seed": 0, "subdivided": solved}


def test_tree_check_subdivided_solves_are_pinned(solves):
    # 4,712 at the search that solved every subdivided graph it met, 3,293
    # with known minimum covers of the tree alone; those and the covers lifted
    # from the row below settle the rest, so skipping, harvesting or lifting
    # less raises it
    for t in verify._trees(3, 12):
        verify._check_tree_sd_eq_msd(t)
    assert solves[0] == 2732


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
    for t in verify._trees(3, 10):
        verify._check_tree_sd_eq_msd(t)
    counts = [b for b in builds if isinstance(b, int)]
    assert counts and 1 not in counts


def test_tree_check_subdivided_graphs_built_are_pinned(builds):
    # 7,696 when msd rebuilt the row of single subdivisions sd had settled
    for t in verify._trees(3, 12):
        verify._check_tree_sd_eq_msd(t)
    assert len(builds) == 4712


def test_tree_check_records_are_frozen():
    # sha256 of every record of the tree check to order 12, one line each,
    # taken before the searches shared their first row and lifted covers
    records = verify.run_verification("tree-sd-eq-msd", 12).records
    lines = "\n".join(f"{r.graph6} {r.ok} {r.expected} {r.actual}" for r in records)
    assert len(records) == 985
    assert hashlib.sha256(lines.encode()).hexdigest() == (
        "236216eb797e9d23881bdfad0b86c6ec9ded0a2560dd4110c9a7f4bf6c438634"
    )
