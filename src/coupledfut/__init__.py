"""Exact-arithmetic engine for the coupled degeneracy invariant of a family
of polarized spaces, computed from fixed-point data and cross-validated
against an independent moment-polytope oracle.
"""

from .analysis import (CrossValidationRecord, RootRecord, RootReport,
                       SampleComparison, cross_validate, fut_roots,
                       isolate_roots, sample_curve)
from .catalog import catalog_names, load
from .errors import (ComputationError, CrossValidationError,
                     DegenerateDatumError, EngineError, GeometryError,
                     InconsistentResidueError, ParseError, PoleError,
                     UsageError, ValidationError)
from .localization import (BundleRestriction, FixedComponent,
                           LocalizationScenario, ValidationReport,
                           component_integral, fut_isolated, fut_localized,
                           make_point_component, power_sum,
                           shift_hamiltonians, validate_scenario,
                           volume_localized)
from .polytopes import (Facet, MinkowskiReport, ParamPolytope,
                        RealizedPolytope, ToricModel, fut_toric,
                        fut_toric_at, linear_moment, minkowski_check,
                        moment_curve, realize, triangulate, volume,
                        volume_curve)
from .rationals import (ParamPoly, Rational, RationalFunction,
                        count_roots_open, interpolate, parse_poly, poly_gcd,
                        poly_text, positive_on_interval, rat, rat_text,
                        ratfun_eval, ratfun_reduce, render_factored,
                        sample_values, sturm_chain)
from .rings import (EquivariantClass, Generator, NilpotentClass, Ring,
                    equiv_pow, integrate, invert_unit, monomial_text,
                    parse_monomial, point_ring, ring_create)
from .scenario import (Scenario, load_scenario, parse_scenario,
                       scenario_from_dict, scenario_to_dict,
                       scenario_to_json)

__version__ = "0.1.0"

__all__ = [
    # analysis
    "CrossValidationRecord", "RootRecord", "RootReport", "SampleComparison",
    "count_roots_open", "cross_validate", "fut_roots", "isolate_roots",
    "positive_on_interval", "sample_curve", "sturm_chain",
    # catalog
    "catalog_names", "load",
    # errors
    "ComputationError", "CrossValidationError", "DegenerateDatumError",
    "EngineError", "GeometryError", "InconsistentResidueError", "ParseError",
    "PoleError", "UsageError", "ValidationError",
    # localization
    "BundleRestriction", "FixedComponent", "LocalizationScenario",
    "ValidationReport", "component_integral", "fut_isolated",
    "fut_localized", "make_point_component", "power_sum",
    "shift_hamiltonians", "validate_scenario", "volume_localized",
    # polytopes
    "Facet", "MinkowskiReport", "ParamPolytope", "RealizedPolytope",
    "ToricModel", "fut_toric", "fut_toric_at", "linear_moment",
    "minkowski_check", "moment_curve", "realize", "triangulate", "volume",
    "volume_curve",
    # rationals
    "ParamPoly", "Rational", "RationalFunction", "interpolate", "parse_poly",
    "poly_gcd", "poly_text", "rat", "rat_text", "ratfun_eval",
    "ratfun_reduce", "render_factored", "sample_values",
    # rings
    "EquivariantClass", "Generator", "NilpotentClass", "Ring", "equiv_pow",
    "integrate", "invert_unit", "monomial_text", "parse_monomial",
    "point_ring", "ring_create",
    # scenario
    "Scenario", "load_scenario", "parse_scenario", "scenario_from_dict",
    "scenario_to_dict", "scenario_to_json",
]
