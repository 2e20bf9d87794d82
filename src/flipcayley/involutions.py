"""The two degree-graded involutions of the flipped star-skew ring.

Both act coefficientwise.  Writing * for the base involution, the degree-i
coefficient is sent through *^(i+1), i.e. starred when i is even and left
alone when i is odd; ``alpha`` additionally negates odd-degree coefficients:

    alpha: a_i X^i  ->  (-1)^i *^(i+1)(a_i) X^i
    beta:  a_i X^i  ->         *^(i+1)(a_i) X^i

``alpha`` is the involution the rest of the package treats as canonical (the
quotient construction inherits it); ``beta`` is the other choice of
``flipcayley involution --which``.  The two differ exactly on X whenever
doubling the algebra does not kill it.
"""

from __future__ import annotations

from .flip_poly import Poly


def _require_star_skew(ring):
    algebra = ring.coeff_algebra
    if not ring.flipped or ring.sigma != algebra.involution or not ring.delta.is_zero():
        raise ValueError(
            "requires the flipped ring with sigma equal to the involution and delta zero"
        )
    return algebra


def _graded_star(ring, p, odd_sign):
    """Star the even-degree coefficients, scale the odd ones by ``odd_sign``."""
    algebra = _require_star_skew(ring)
    return Poly({
        degree: algebra.star(coeff) if degree % 2 == 0 else coeff.scaled(odd_sign)
        for degree, coeff in p.coeffs.items()
    })


def alpha(ring, p):
    """The sign-alternating coefficientwise involution."""
    return _graded_star(ring, p, -1)


def beta(ring, p):
    """The coefficientwise involution without sign alternation."""
    return _graded_star(ring, p, 1)


def degree_one_extension_violations(ring, image):
    """Necessary conditions on a candidate generator image gamma(X) = a + bX.

    Any involution extending the base one and sending X to a degree-one
    polynomial must satisfy b*b = 1, a* + a b* = 0, and c* a = a c for all c.
    Returns descriptions of the violated conditions (empty means consistent).
    """
    algebra = _require_star_skew(ring)
    violations = []
    if image.degree() > 1:
        violations.append("image of X must have degree at most 1")
        return tuple(violations)
    a = image.coeff(0, algebra.dim)
    b = image.coeff(1, algebra.dim)
    if algebra.mul(b, b) != algebra.unit:
        violations.append("b*b = 1 fails for the degree-1 coefficient b")
    lhs = algebra.star(a) + algebra.mul(a, algebra.star(b))
    if not lhs.is_zero():
        violations.append("a* + a b* = 0 fails")
    for c in algebra.basis():
        if algebra.mul(algebra.star(c), a) != algebra.mul(a, c):
            violations.append("c* a = a c fails on a basis element")
            break
    return tuple(violations)
