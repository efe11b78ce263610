"""Exact computation of stringy invariants of rank-bounded matrix varieties."""

from .exactalg import LaurentPoly, RationalFn
from .groth import (
    class_gl,
    class_independent_tuples,
    gauss_binomial,
    rank_identity_check,
    rank_stratum_class,
)
from .stringy import (
    HodgeTable,
    ResolutionData,
    grassmannian_recursive,
    grassmannian_subset_sum,
    hodge_table,
    log_discrepancies,
    orbit_measure,
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
