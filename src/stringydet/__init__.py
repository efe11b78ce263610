"""Exact computation of stringy invariants of rank-bounded matrix varieties."""

from .exactalg import LaurentPoly, RationalFn
from .groth import (
    Composition,
    PartitionTail,
    class_flag_quotient,
    class_gl,
    class_independent_tuples,
    class_levi,
    composition_of_partition,
    gauss_binomial,
    rank_identity_check,
    rank_stratum_class,
)
from .stringy import (
    HodgeTable,
    ResolutionData,
    ZetaSeries,
    grassmannian_recursive,
    grassmannian_subset_sum,
    hodge_table,
    log_discrepancies,
    orbit_measure,
    rank_one_resolution_check,
    stringy_e_affine,
    stringy_e_affine_from_orbits,
    stringy_e_from_resolution,
    stringy_e_projective,
    stringy_e_projective_from_orbits,
    stringy_euler,
    truncated_orbit_sum,
    zeta_closed_expansion,
    zeta_coefficient_direct,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
