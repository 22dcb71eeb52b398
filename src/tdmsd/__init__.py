"""Exact total-domination subdivision invariants on small graphs.

Computes the domination and total domination numbers with certificates, the
four edge-subdivision invariants, the constructive labeled-tree family with
its membership test, the single-subdivision characterization predicates for
trees, and exhaustive verification sweeps over all non-isomorphic trees and
small connected graphs.

Importing the package loads no submodule: each public name is imported from
its submodule on first use (PEP 562), so a caller pays only for what it uses.
"""

from importlib import import_module

# each submodule and the public names it exports, in the order of __all__
_EXPORTS = {
    "errors": ("errors",),
    "canonical": ("canonical_code", "labeled_tree_code", "tree_centers"),
    "characterization": (
        "EdgeConditionReport", "inner_edge_condition", "leaf_condition",
        "lemma2_sufficient", "lemma14_sufficient_sd_gt_one",
        "longest_path", "longest_paths", "predicts_sd_one",
    ),
    "domination": (
        "DominationCertificate", "MembershipProfile",
        "all_min_total_dominating_sets", "gamma", "gamma_t",
        "gamma_t_membership_profile", "gamma_t_set_avoiding_leaves",
        "gamma_t_value", "gamma_value", "is_dominating", "is_total_dominating",
    ),
    "enumeration": ("enumerate_connected_graphs", "enumerate_trees"),
    "family": (
        "LabeledTree", "apply_operation", "family_seed", "generate_family",
        "is_in_family", "verify_bc_property",
    ),
    "fixtures": ("complete", "cycle", "fixture_by_name", "gstar", "path", "star", "wheel"),
    "graph": (
        "Edge", "Graph", "StructureProfile", "format_edge_list", "from_edge_list",
        "parse_edge_list", "private_neighborhood", "structure_profile",
        "subdivide", "subdivide_edges",
    ),
    "graph6": ("graph6_decode", "graph6_encode"),
    "subdivision": (
        "SearchState", "SubdivisionResult", "msd_gamma", "msd_gamma_t",
        "msd_gamma_t_edge", "sd_gamma", "sd_gamma_t",
    ),
    "verify": ("VerificationReport", "path_cycle_formula", "run_verification"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
