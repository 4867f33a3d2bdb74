"""Sidon sets in finite abelian groups.

Constructions meeting the sqrt(n) density barrier, the incidence
geometry they generate, abelian actions on projective planes, sparse
constructions from prime numbers, and exhaustive searches in small
groups.
"""

import importlib

from .groups import (
    AbelianGroup,
    GroupElement,
    GroupError,
    automorphisms,
    invariant_factor_form,
)
from .search import (
    BudgetExceeded,
    SearchError,
    SearchResult,
    admissible_orders,
    enumerate_sidon,
    extend_sidon,
    max_sidon,
    sigma_table,
    test_T_subgroup,
    test_extendable,
)
from .sidon import (
    SidonReport,
    affine_equivalent,
    counting_bound,
    is_perfect_difference_set,
    is_sidon,
    subgroup_union_cover,
)

# Names bound on first read.  A process that only searches needs the four
# modules imported above and nothing else: the plane side (field tables,
# dense constructions, incidence structures, plane actions, and the
# logging they use) and the prime-based side (whose modules import mpmath)
# would only be compiled and run for names it never reads.
_LAZY = {
    "dense": ("DENSE_NAMES", "ConstructionError", "PlanarCandidate", "construct_dense",
              "is_nondegenerate", "is_planar", "planar_graph", "polarization"),
    "fields": ("FieldError", "FiniteField", "field_create"),
    "incidence": ("IncidenceStructure", "develop", "dualize", "is_partial_linear_space",
                  "is_projective_plane", "self_dual_via_negation"),
    "planes3": ("FAMILY_TAGS", "PlaneAction", "PlaneError", "extract_sidon", "family_build",
                "orbit_analysis", "plane_build", "recover_constructions"),
    "pell": ("CFData", "PellError", "fundamental_unit", "regulator"),
    "quadforms": ("BinaryQF", "ClassGroup", "FormError", "fundamental_discriminant",
                  "prime_form", "reduced_forms", "splits"),
    "sparse": ("BudgetError", "FrameworkSpec", "SparseError", "SparseResult",
               "class_group_primes", "cubic_graph", "framework_build", "gaussian_angles",
               "is_sidon_z", "log_primes", "perturb", "quotient_ring_primes",
               "real_quadratic"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BinaryQF",
    "BudgetError",
    "BudgetExceeded",
    "CFData",
    "ClassGroup",
    "ConstructionError",
    "DENSE_NAMES",
    "FAMILY_TAGS",
    "FieldError",
    "FiniteField",
    "FormError",
    "FrameworkSpec",
    "GroupElement",
    "GroupError",
    "IncidenceStructure",
    "PellError",
    "PlanarCandidate",
    "PlaneAction",
    "PlaneError",
    "SearchError",
    "SearchResult",
    "SidonReport",
    "SparseError",
    "SparseResult",
    "admissible_orders",
    "affine_equivalent",
    "automorphisms",
    "class_group_primes",
    "construct_dense",
    "counting_bound",
    "cubic_graph",
    "develop",
    "dualize",
    "enumerate_sidon",
    "extend_sidon",
    "extract_sidon",
    "family_build",
    "field_create",
    "framework_build",
    "fundamental_discriminant",
    "fundamental_unit",
    "gaussian_angles",
    "invariant_factor_form",
    "is_nondegenerate",
    "is_partial_linear_space",
    "is_perfect_difference_set",
    "is_planar",
    "is_projective_plane",
    "is_sidon",
    "is_sidon_z",
    "log_primes",
    "max_sidon",
    "orbit_analysis",
    "perturb",
    "planar_graph",
    "plane_build",
    "polarization",
    "prime_form",
    "quotient_ring_primes",
    "real_quadratic",
    "recover_constructions",
    "reduced_forms",
    "regulator",
    "self_dual_via_negation",
    "sigma_table",
    "splits",
    "subgroup_union_cover",
    "test_T_subgroup",
    "test_extendable",
]
