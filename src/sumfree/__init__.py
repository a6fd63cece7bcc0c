"""Sum-free subsets of integer intervals and finite abelian groups.

Construct, verify, generate, enumerate and count sum-free subsets at desk
scale: extremal classifications, exception sets, density formulas,
counting trends and maximal-set bounds.

The exported names load lazily (PEP 562): ``import sumfree`` loads no
submodule, and the first use of a name imports the module defining it.
"""

import importlib

# module -> the names it exports here
_EXPORTS = {
    "analysis": (
        "DensityReport", "StructureVerdict", "WeightedDensityReport", "coset_floor_check",
        "decomposition_ratio", "density_formula", "density_report",
        "even_order_leading_term", "pair_maximal_groups", "singleton_maximal_groups",
        "structure_verdict", "verify_index2_structure", "weighted_density_check",
    ),
    "construct": (
        "coset", "extremal_intervals", "lift_residues", "middle_block", "middle_third",
        "odds", "outer_bands", "periodic_residues",
    ),
    "enumeration": (
        "CountRecord", "build_count_record", "count_by_cardinality", "count_by_largest",
        "count_maximal", "count_sum_free", "count_sum_free_sharded", "count_two_wise",
        "enumerate_maximal", "enumerate_maximum", "enumerate_naive", "enumerate_sum_free",
        "maximal_sets_of_size",
    ),
    "errors": ("CapacityError", "GenerationTimeout"),
    "generate": (
        "ExtractionTrace", "PrimePick", "RandomGenConfig", "extract_sum_free",
        "find_dilator", "find_prime", "random_sum_free", "residue_weights",
    ),
    "groups": (
        "GroupSpec", "Subgroup", "abelian_groups_of_order", "generated_subgroup",
        "index2_subgroups",
    ),
    "universe": (
        "ElemSet", "GroupUniverse", "IntervalUniverse", "Universe", "count_schur_triples",
        "is_a_free", "is_difference_free", "is_maximal_sum_free", "is_sum_free",
        "is_two_wise_sum_free",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later uses skip this hook
    return value
