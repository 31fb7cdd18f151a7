"""Exact elimination kernel: resultants and discriminants of homogeneous
polynomial systems over exact commutative coefficient rings."""

from .errors import (
    DegenerateSignature,
    DegreeTooLow,
    DeltaIsOne,
    DivisionByZero,
    ElimkitError,
    IdentityFailed,
    NonHomogeneous,
    NotDivisible,
    NotGeneric,
    NotQuadratic,
    PerturbationDegenerate,
    RingMismatch,
    SignatureMismatch,
    TooLarge,
    UnknownSuite,
    UnsupportedRing,
    UnweightedSymbol,
    WrongRing,
)
from .ring import QQ, RingElement, ZZ, Zmod, element, exact_divide, join_extension, polyext
from .mpoly import (
    DegreeSignature,
    MultiPoly,
    WeightVector,
    dehomogenize,
    generic_polynomial,
    generic_system,
    is_homogeneous,
    isobaric_part,
    lift_poly,
    monomials_of_degree,
    partial_derivative,
    poly_content,
    poly_exact_div,
    poly_sqrt,
    substitute,
    weight_valuation,
    zariski_weight_vector,
)
from .determinants import det_bareiss, det_poly_matrix
from .resultant import (
    MacaulaySystem,
    build_macaulay,
    gcp_resultant,
    is_inertia_form_generic,
    resultant,
    zariski_lowest_part,
)
from .jacobian import hess_det, hessian, jac_full, jac_minor, jacobian_degree
from .disc_points import (
    base_change_K,
    base_change_K_degree,
    base_change_K_fdegree,
    delta_mod_delta,
    disc_points,
    disc_points_degree,
    disc_points_traced,
    linear_forms_disc,
    total_degree,
)
from .disc_hyper import (
    a_exponent,
    delta_n_identity,
    disc_hyper,
    disc_hyper_basechange,
    disc_hyper_degree,
    disc_times_bar,
    disc_valuation,
    quadric_disc,
)
from .mertens import (
    ThetaForm,
    lemmaA_product,
    mertens_first,
    mertens_second,
    rho,
    rho_bar,
    theta,
)
from .oracle import (
    GenericCacheEntry,
    PoiVerdict,
    clear_generic_cache,
    generic_disc,
    poi_check,
    singular_points,
)

__version__ = "0.1.0"
