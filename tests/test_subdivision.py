import random
import time

import pytest

from tdmsd import (
    complete,
    cycle,
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
from tdmsd.verify import path_cycle_formula

from oracles import naive_msd, naive_sd, random_connected_edges


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
def test_complete_graphs_skip_the_factorial_canonical_path(search, n, expected):
    # a canonical code of a near-complete graph is factorial in n; the
    # searches must solve subdivided graphs without one, and without filling
    # the global gamma_t cache with them (at most the base graph is added)
    g = complete(n)
    size_before = gamma_t_value.cache_info().currsize
    start = time.perf_counter()
    assert search(g).value == expected
    assert time.perf_counter() - start < 5.0
    assert gamma_t_value.cache_info().currsize - size_before <= 1
