"""Exact-arithmetic Cayley-Dickson algebras and flipped polynomial rings."""

from .algebra_core import (
    AlgebraElement,
    StarAlgebra,
    basis_element,
    zero_element,
)
from .cayley_dickson import (
    NAMED_TOWERS,
    cayley_double,
    find_zero_divisor,
    named,
    rational_base,
    tower,
)
from .flip_poly import (
    AdditiveMap,
    AxiomReport,
    FlipPolyRing,
    Poly,
    check_axioms,
    ordinary_ring,
    parse_poly,
    poly_to_text,
    star_skew_ring,
)
from .involutions import alpha, beta, degree_one_extension_violations
from .quotient_iso import (
    QuotientRing,
    cayley_t_mul,
    cayley_t_star,
    psi,
    psi_inv,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveMap",
    "AlgebraElement",
    "AxiomReport",
    "FlipPolyRing",
    "NAMED_TOWERS",
    "Poly",
    "QuotientRing",
    "StarAlgebra",
    "alpha",
    "basis_element",
    "beta",
    "cayley_double",
    "cayley_t_mul",
    "cayley_t_star",
    "check_axioms",
    "degree_one_extension_violations",
    "find_zero_divisor",
    "named",
    "ordinary_ring",
    "parse_poly",
    "poly_to_text",
    "psi",
    "psi_inv",
    "rational_base",
    "star_skew_ring",
    "tower",
    "zero_element",
]
