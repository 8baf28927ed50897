"""Exact exponential sums over Galois rings and curves in characteristic p.

The package provides Witt vector arithmetic over arbitrary rings of
characteristic p, Galois rings GR(p^l, m) with the canonical isomorphism to
Witt vectors over the residue field, exact cyclotomic-integer character sums
over Teichmuller subsets and curve points, Artin-Schreier-Witt conductors,
L-functions of the associated characters, and evaluators plus brute-force
verification sweeps for the explicit square-root bounds those objects obey.
"""

from .asw import (
    Conductor,
    DegenerateInputError,
    ReducedForm,
    artin_reduce_at,
    conductor,
    denominator_places,
    genus_of_cover,
    is_nondegenerate,
    reduced_pole_order,
    witt_function,
    wp,
)
from .charsums import (
    BoundInputs,
    BoundReport,
    CharSumResult,
    LFunctionResult,
    PoleData,
    SweepResult,
    bound_cor52,
    bound_cor53,
    bound_kumar,
    bound_thm31,
    bound_thm51,
    gamma_s,
    gamma_s_rational,
    l_function,
    sum_teichmuller,
    sum_witt,
    sweep_kumar,
    sweep_thm31_p1,
    theorem12_check,
    verify_sweep,
)
from .cyclotomic import CyclotomicInteger
from .elliptic import (
    AffinePlace,
    EllipticCurve,
    EllipticFunction,
    EllipticFunctionField,
    OriginPlace,
)
from .fields import FieldCapError, FiniteField, get_embedding, get_field
from .galois_rings import GaloisRing, get_galois_ring, get_gr_embedding
from .poly import Poly, PolynomialRing
from .rational import (
    ENUMERATION_CAP,
    EnumerationCapError,
    FinitePlace,
    InfinitePlace,
    RationalFunction,
    RationalFunctionField,
    places_up_to_degree,
)
from .series import LaurentSeries, PrecisionError
from .witt import WittParams, WittVector

__version__ = "0.1.0"

__all__ = [
    "AffinePlace",
    "BoundInputs",
    "BoundReport",
    "CharSumResult",
    "Conductor",
    "CyclotomicInteger",
    "DegenerateInputError",
    "ENUMERATION_CAP",
    "EllipticCurve",
    "EllipticFunction",
    "EllipticFunctionField",
    "EnumerationCapError",
    "FieldCapError",
    "FinitePlace",
    "FiniteField",
    "GaloisRing",
    "InfinitePlace",
    "LFunctionResult",
    "LaurentSeries",
    "OriginPlace",
    "Poly",
    "PoleData",
    "PolynomialRing",
    "PrecisionError",
    "RationalFunction",
    "RationalFunctionField",
    "ReducedForm",
    "SweepResult",
    "WittParams",
    "WittVector",
    "artin_reduce_at",
    "bound_cor52",
    "bound_cor53",
    "bound_kumar",
    "bound_thm31",
    "bound_thm51",
    "conductor",
    "denominator_places",
    "gamma_s",
    "gamma_s_rational",
    "genus_of_cover",
    "get_embedding",
    "get_field",
    "get_galois_ring",
    "get_gr_embedding",
    "is_nondegenerate",
    "l_function",
    "places_up_to_degree",
    "reduced_pole_order",
    "sum_teichmuller",
    "sum_witt",
    "sweep_kumar",
    "sweep_thm31_p1",
    "theorem12_check",
    "verify_sweep",
    "witt_function",
    "wp",
]
