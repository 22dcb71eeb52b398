import pytest

from tdmsd import (
    cycle,
    errors,
    from_edge_list,
    inner_edge_condition,
    leaf_condition,
    lemma2_sufficient,
    lemma14_sufficient_sd_gt_one,
    longest_path,
    longest_paths,
    path,
    predicts_sd_one,
    sd_gamma_t,
    structure_profile,
)
from tdmsd.enumeration import enumerate_trees


def test_leaf_condition_examples():
    assert leaf_condition(path(4)) == 0
    # the unique minimum total dominating set of P5 is {1,2,3}: both leaves
    # are in no minimum set, so the leaf branch fires here too
    assert leaf_condition(path(5)) == 0
    assert leaf_condition(path(7)) is None


def test_leaf_condition_requires_tree():
    with pytest.raises(errors.NotATree):
        leaf_condition(cycle(4))


def test_inner_edge_condition_p5():
    report = inner_edge_condition(path(5), (1, 2))
    assert report.holds and report.failing_set is None


def test_inner_edge_condition_p6_p7_fail():
    for n in (6, 7):
        for e in structure_profile(path(n)).inner_edges:
            report = inner_edge_condition(path(n), e)
            assert not report.holds
            assert report.failing_set is not None


def test_inner_edge_condition_rejects_pendant():
    with pytest.raises(errors.NotInnerEdge):
        inner_edge_condition(path(5), (0, 1))
    with pytest.raises(errors.NotInnerEdge):
        inner_edge_condition(path(5), (0, 2))


def test_predicts_sd_one_examples():
    assert predicts_sd_one(path(4))
    assert not predicts_sd_one(path(6))
    assert not predicts_sd_one(path(7))


def test_lemma2_examples():
    assert lemma2_sufficient(path(4))
    assert not lemma2_sufficient(cycle(4))


def test_lemma2_adjacent_supports_have_sd_one():
    g = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)])
    assert sd_gamma_t(g).value == 1
    if lemma2_sufficient(g):
        assert sd_gamma_t(g, cap=1).value == 1


def test_lemma14_examples():
    assert lemma14_sufficient_sd_gt_one(path(6))
    assert not lemma14_sufficient_sd_gt_one(path(4))
    assert lemma14_sufficient_sd_gt_one(path(7))


def test_characterization_exact_on_trees_to_ten():
    # the full biconditional on a small order range; the acceptance suite
    # pushes this to order 12
    for n in range(3, 11):
        for t in enumerate_trees(n):
            assert predicts_sd_one(t) == (sd_gamma_t(t, cap=1).value == 1)


def test_predictors_never_conflict():
    for n in range(3, 11):
        for t in enumerate_trees(n):
            assert not (predicts_sd_one(t) and lemma14_sufficient_sd_gt_one(t))


def test_longest_path_examples():
    assert longest_path(path(6)) == (0, 1, 2, 3, 4, 5)
    # legs of length 3, 2 and 1 hanging off vertex 0
    spider = from_edge_list(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6)])
    p = longest_path(spider)
    assert len(p) == 6
    assert p[0] < p[-1]
    assert set(p) == {3, 2, 1, 0, 4, 5}


def test_longest_paths_enumerates_all_diametral_pairs():
    star_of_paths = from_edge_list(
        7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]
    )
    paths = longest_paths(star_of_paths)
    assert len(paths) == 3  # three pairs of leaves at distance 4
    for p in paths:
        assert len(p) == 5


def test_longest_path_rejects_non_tree():
    with pytest.raises(errors.NotATree):
        longest_path(cycle(5))


def test_failing_set_is_a_witness():
    from tdmsd import gamma_t_value, is_total_dominating

    for n in (6, 7, 8):
        for t in enumerate_trees(n):
            for e in structure_profile(t).inner_edges:
                report = inner_edge_condition(t, e)
                if not report.holds:
                    s = report.failing_set
                    assert is_total_dominating(t, s)
                    assert len(s) == gamma_t_value(t)


def test_min_set_predicates_keep_the_enumeration_cap():
    # both read the minimum sets directly; the cap must hold for them too
    with pytest.raises(errors.TooLarge):
        inner_edge_condition(path(21), (1, 2))
    with pytest.raises(errors.TooLarge):
        lemma14_sufficient_sd_gt_one(path(21))
