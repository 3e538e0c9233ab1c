"""Dual curvature measures of convex bodies and the dual Minkowski problem."""

from .body_core import (Ball, Ellipsoid, GeometryError, HPolytope, VPolytope,
                        body_from_dict, convex_hull_of_radial, polar,
                        wulff_polar_identity_check, wulff_shape)
from .gauss_maps import cone_partition, radial_gauss, reverse_radial_gauss_smooth
from .measures import (DiscreteSphericalMeasure, cone_volume_measure,
                       dual_area, dual_curvature, dual_curvature_density_smooth,
                       dual_curvature_q0, dual_quermassintegral,
                       dual_steiner_check, hull_of_union,
                       intersect_hpolytopes, lp_surface_area_measure,
                       measure_l1, measure_max_discrepancy,
                       surface_area_measure, valuation_check)
from .quadrature import sphere_rule, spherical_polygon_rule, unit_ball_volume
from .solver import (FeasibilityResult, SolverConfig, SolverReport,
                     check_subspace_mass, phi_mu, phi_gradient,
                     solve_dual_minkowski)
from .variational import (LogFamily, check_aleksandrov, check_dual_variation,
                          check_q0_variation)

__version__ = "0.1.0"

# every kernel is NumPy; kept as a constant for tools that record it
BACKEND = "python"

__all__ = [
    "BACKEND",
    "Ball",
    "DiscreteSphericalMeasure",
    "Ellipsoid",
    "FeasibilityResult",
    "GeometryError",
    "HPolytope",
    "LogFamily",
    "SolverConfig",
    "SolverReport",
    "VPolytope",
    "body_from_dict",
    "check_aleksandrov",
    "check_dual_variation",
    "check_q0_variation",
    "check_subspace_mass",
    "cone_partition",
    "cone_volume_measure",
    "convex_hull_of_radial",
    "dual_area",
    "dual_curvature",
    "dual_curvature_density_smooth",
    "dual_curvature_q0",
    "dual_quermassintegral",
    "dual_steiner_check",
    "hull_of_union",
    "intersect_hpolytopes",
    "lp_surface_area_measure",
    "measure_l1",
    "measure_max_discrepancy",
    "phi_gradient",
    "phi_mu",
    "polar",
    "radial_gauss",
    "reverse_radial_gauss_smooth",
    "solve_dual_minkowski",
    "sphere_rule",
    "spherical_polygon_rule",
    "surface_area_measure",
    "unit_ball_volume",
    "valuation_check",
    "wulff_polar_identity_check",
    "wulff_shape",
]
