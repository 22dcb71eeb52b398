"""Exact total-domination subdivision invariants on small graphs.

Computes the domination and total domination numbers with certificates, the
four edge-subdivision invariants, the constructive labeled-tree family with
its membership test, the single-subdivision characterization predicates for
trees, and exhaustive verification sweeps over all non-isomorphic trees and
small connected graphs.
"""

from . import errors
from .canonical import canonical_code, labeled_tree_code, tree_centers
from .characterization import (
    EdgeConditionReport,
    inner_edge_condition,
    leaf_condition,
    lemma2_sufficient,
    lemma14_sufficient_sd_gt_one,
    longest_path,
    longest_paths,
    predicts_sd_one,
)
from .domination import (
    DominationCertificate,
    MembershipProfile,
    all_min_total_dominating_sets,
    gamma,
    gamma_t,
    gamma_t_membership_profile,
    gamma_t_set_avoiding_leaves,
    gamma_t_value,
    gamma_value,
    is_dominating,
    is_total_dominating,
)
from .enumeration import (
    GraphStream,
    enumerate_connected_graphs,
    enumerate_trees,
)
from .family import (
    LabeledTree,
    apply_operation,
    family_seed,
    generate_family,
    is_in_family,
    verify_bc_property,
)
from .fixtures import complete, cycle, fixture_by_name, gstar, path, star, wheel
from .graph import (
    Edge,
    Graph,
    StructureProfile,
    format_edge_list,
    from_edge_list,
    parse_edge_list,
    private_neighborhood,
    structure_profile,
    subdivide,
    subdivide_edges,
)
from .graph6 import graph6_decode, graph6_encode
from .subdivision import (
    SubdivisionResult,
    msd_gamma,
    msd_gamma_t,
    msd_gamma_t_edge,
    sd_gamma,
    sd_gamma_t,
)
from .verify import VerificationReport, path_cycle_formula, run_verification

__all__ = [
    "errors",
    "canonical_code", "labeled_tree_code", "tree_centers",
    "EdgeConditionReport", "inner_edge_condition", "leaf_condition",
    "lemma2_sufficient", "lemma14_sufficient_sd_gt_one",
    "longest_path", "longest_paths", "predicts_sd_one",
    "DominationCertificate", "MembershipProfile",
    "all_min_total_dominating_sets", "gamma", "gamma_t",
    "gamma_t_membership_profile", "gamma_t_set_avoiding_leaves",
    "gamma_t_value", "gamma_value", "is_dominating", "is_total_dominating",
    "GraphStream", "enumerate_connected_graphs", "enumerate_trees",
    "LabeledTree", "apply_operation", "family_seed", "generate_family",
    "is_in_family", "verify_bc_property",
    "complete", "cycle", "fixture_by_name", "gstar", "path", "star", "wheel",
    "Edge", "Graph", "StructureProfile", "format_edge_list", "from_edge_list",
    "parse_edge_list", "private_neighborhood", "structure_profile",
    "subdivide", "subdivide_edges",
    "graph6_decode", "graph6_encode",
    "SubdivisionResult", "msd_gamma", "msd_gamma_t", "msd_gamma_t_edge",
    "sd_gamma", "sd_gamma_t",
    "VerificationReport", "path_cycle_formula", "run_verification",
]
