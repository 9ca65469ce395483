"""Exact-arithmetic toolkit for quasi-line geometry computations."""

from .bundles import (
    BlowupPlan,
    DivisorData,
    SplittingType,
    codim2_blowup,
    elementary_transform,
    fibration_reduction,
    point_blowup,
    quasiline_plan,
    rationality_criterion,
    recover_splitting,
    self_intersections,
    strong_rationality_criterion,
)
from .cubic import (
    Poly,
    conic_count_certificate,
    count_lines_through_point,
    line_pencil_expansion,
    sylvester_resultant,
)
from .divisors import (
    SupportFunction,
    cartier_certificate,
    count_lattice_points,
    h0,
    pullback,
    quotient_extension_check,
    quotient_hyperplane_support,
    sections_polyhedron,
)
from .fans import (
    Fan,
    cone_multiplicity,
    cyclic_quotient_fans,
    desingularize,
    is_smooth,
    is_toric_morphism,
    make_fan,
    stellar_subdivide,
    validate_fan,
)
from .lattice import (
    primitive,
    smith_normal_form,
    solve_rational_linear,
)
from .models import (
    ModelRecord,
    catalog,
    propagate,
)

__version__ = "0.1.0"
