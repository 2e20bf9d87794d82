"""Structural sets of flipped polynomial rings, by criteria and by brute force.

Membership of a polynomial in the commuter, nuclei or center of the flipped
star-skew ring is decided by independent linear conditions on each
coefficient, depending only on the degree's parity.  ``degreewise_set``
solves those conditions exactly.  ``degreewise_set_bruteforce`` is the
independent oracle: it multiplies actual monomials in the ring and solves
the resulting constraint systems, with the other slots' degrees through one
``period`` of the star-skew ring, which the ring proves at construction:
always 2, as sigma is the involution and delta is 0 (higher degrees only
repeat rows).  The tests require the two routes to coincide.  The oracles
(this one and ``x_in_nucleus_bruteforce``, whose loop is family N's) read
the commutator and associators from ``algebra_core.IDENTITIES``, the words
behind the criteria's row kinds, with ``identity_at`` on the ring's
basis-monomial memo (the kernel's within one period, raised past it); the
degreewise one builds and solves its rows as the criteria do, with
``identity_rows`` and ``StarAlgebra._nullspace``.

The map-shape predicates (sigma an endomorphism, delta a left or right
sigma-derivation) are laws checked on every basis pair by one loop.
Generator membership in the one-sided nuclei and the inheritance of
commutativity/associativity/flexibility/alternativity by the ring are
decided by closed criteria on the coefficient algebra, each paired with a
brute-force or quotient-based cross-check elsewhere in the package.  The
criteria are stated for flipped rings; an unflipped ring is the same ring
only over a commutative algebra, so ``x_in_nucleus`` and
``ring_is_associative_criterion`` raise ``ValueError`` for an unflipped ring
over a non-commutative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from . import linalg
from .algebra_core import identity_at, identity_rows
from .flip_poly import generator_associators, star_skew_ring

SET_KINDS = ("commuter", "left_right_nucleus", "middle_nucleus", "nucleus", "center")
X_SIDES = ("left", "middle", "right")
CRITERIA_BOUND_LIMIT = 8
BRUTE_BOUND_LIMIT = 4


@dataclass(frozen=True)
class DegreewiseSet:
    """Per-degree subspace bases (reduced echelon form) up to a degree bound."""

    kind: str
    bound: int
    per_degree: dict

    def dims(self):
        return {degree: len(basis) for degree, basis in self.per_degree.items()}


# ----------------------------------------------------------- map-shape predicates
def _holds_on_basis_pairs(ring, law):
    """Whether ``law(mul, r, s)`` holds for all basis elements r, s of the coefficients."""
    algebra = ring.coeff_algebra
    basis = algebra.basis()
    return all(law(algebra.mul, r, s) for r in basis for s in basis)


def sigma_is_endomorphism(ring):
    sigma = ring.sigma
    return _holds_on_basis_pairs(
        ring, lambda mul, r, s: sigma(mul(r, s)) == mul(sigma(r), sigma(s))
    )


def delta_is_left_sigma_derivation(ring):
    sigma, delta = ring.sigma, ring.delta
    return _holds_on_basis_pairs(
        ring, lambda mul, r, s: delta(mul(r, s)) == mul(sigma(r), delta(s)) + mul(delta(r), s)
    )


def delta_is_right_sigma_derivation(ring):
    sigma, delta = ring.sigma, ring.delta
    return _holds_on_basis_pairs(
        ring, lambda mul, r, s: delta(mul(r, s)) == mul(delta(r), sigma(s)) + mul(r, delta(s))
    )


# ------------------------------------------------------- generator nucleus tests
def _check_criteria_domain(ring):
    """The closed criteria are stated for flipped rings.  An unflipped ring is
    the same ring only when its coefficient algebra commutes."""
    if not ring.flipped and not ring.coeff_algebra.is_commutative():
        raise ValueError(
            "the closed criteria need a flipped ring or a commutative coefficient algebra"
        )


def x_in_nucleus(ring, side):
    """Generator membership in a one-sided nucleus, by the closed criteria.

    left: sigma is an endomorphism and delta is a two-sided sigma-derivation.
    middle: the smallest delta-stable subspace containing the image of sigma
    lies inside the commuter (the span chain stabilizes within dim steps, so
    the quantifier over all iterates is exact, not truncated).
    right: the coefficient algebra is commutative.
    """
    if side not in X_SIDES:
        raise ValueError(f"side must be one of {X_SIDES}")
    _check_criteria_domain(ring)
    algebra = ring.coeff_algebra
    if side == "left":
        return (
            sigma_is_endomorphism(ring)
            and delta_is_left_sigma_derivation(ring)
            and delta_is_right_sigma_derivation(ring)
        )
    if side == "middle":
        reducer = linalg.span((ring.sigma(e).coords for e in algebra.basis()), algebra.dim)
        while any(reducer.add(ring.delta.apply(row)) for row in reducer.rows()):
            pass  # until delta maps the span into itself
        commuter = linalg.span((e.coords for e in algebra.commuter_basis()), algebra.dim)
        return all(commuter.contains(row) for row in reducer.rows())
    return algebra.is_commutative()


def x_in_nucleus_bruteforce(ring, side, degree_bound=4):
    """Oracle: vanishing of all associators with the generator in the given slot."""
    if side not in X_SIDES:
        raise ValueError(f"side must be one of {X_SIDES}")
    if not 0 <= degree_bound <= BRUTE_BOUND_LIMIT:
        raise ValueError(f"degree_bound must be between 0 and {BRUTE_BOUND_LIMIT}")
    return not any(any(v.values()) for *_, v in generator_associators(ring, (side,), degree_bound))


# ------------------------------------------------------------ inheritance criteria
def ring_is_associative_criterion(ring):
    """Associativity of the flipped ring, decided on the coefficient algebra."""
    _check_criteria_domain(ring)
    algebra = ring.coeff_algebra
    return (
        algebra.is_associative()
        and algebra.is_commutative()
        and sigma_is_endomorphism(ring)
        and delta_is_left_sigma_derivation(ring)
    )


def _norms_commute(algebra):
    """a a* commutes with everything, decided through its char-0 polarization."""
    commuter = linalg.span((e.coords for e in algebra.commuter_basis()), algebra.dim)
    basis = algebra.basis()
    for i, a in enumerate(basis):
        for b in basis[i:]:
            v = algebra.mul(a, algebra.star(b)) + algebra.mul(b, algebra.star(a))
            if not commuter.contains(v.coords):
                return False
    return True


def b_flexible_criterion(algebra):
    """Flexibility of the flipped star-skew ring over this algebra."""
    return (
        algebra.is_flexible()
        and _norms_commute(algebra)
        and _associators_star_invariant(algebra)
    )


def _associators_star_invariant(algebra):
    """Whether (a, b, c) = (a, b*, c*) for all basis elements a, b, c.  Each
    associator is read from the table by ``identity_at``; with the star's
    columns b* = sum (s/den) e_r and c* = sum (u/den) e_t, den^2 (a, b*, c*)
    is the sum of s u (a, e_r, e_t)."""
    n, table = algebra.dim, algebra.table
    cols, den = algebra.involution.cols, algebra.involution.den
    associators = {
        slots: identity_at(table, "nucleus_left", slots) for slots in product(range(n), repeat=3)
    }
    for a, b, c in associators:
        diff = {k: den * den * v for k, v in associators[a, b, c].items()}
        for (r, s), (t, u) in product(cols[b], cols[c]):
            for k, v in associators[a, r, t].items():
                diff[k] = diff.get(k, 0) - s * u * v
        if any(diff.values()):
            return False
    return True


def b_alternative_criterion(algebra):
    """Alternativity of the flipped star-skew ring over this algebra."""
    if not algebra.is_alternative():
        return False
    if not _norms_commute(algebra):
        return False
    nucleus = linalg.span((e.coords for e in algebra.nucleus_basis("full")), algebra.dim)
    for a in algebra.basis():
        v = a.scaled(2) + algebra.star(a)
        if not nucleus.contains(v.coords):
            return False
    return True


def b_commutative_criterion(algebra):
    """Commutativity of the flipped star-skew ring over this algebra."""
    return algebra.is_commutative() and algebra.involution.is_identity()


def alpha_trivial_criterion(algebra):
    """Triviality of the sign-alternating involution: trivial star and 2A = 0."""
    if not algebra.involution.is_identity():
        return False
    return all((e + e).is_zero() for e in algebra.basis())


# -------------------------------------------------------- degreewise sets: criteria
_Z_ROWS = ("commuter", "nucleus_left", "nucleus_middle", "nucleus_right")

# (even-degree row kinds, odd-degree row kinds) of ``StarAlgebra._rows`` for each set
_KIND_ROWS = {
    "commuter": (
        ("commuter", "star_fixed"),
        ("commuter", "star_fixed", "kill_star_skew"),
    ),
    "left_right_nucleus": (
        _Z_ROWS,
        ("commuter", "nucleus_middle", "swap_right", "outer_twist"),
    ),
    "middle_nucleus": (
        ("commuter", "nucleus_middle"),
        ("commuter", "exchange_right", "exchange_left"),
    ),
    "nucleus": (
        _Z_ROWS,
        _Z_ROWS + ("kill_commutators",),
    ),
    "center": (_Z_ROWS + ("star_fixed",), _Z_ROWS + ("star_fixed", "kill_star_skew")),
}

# identity kinds whose ring-product rows the brute-force oracle solves for each
# set, one nullspace per tuple; the left/right set must get the same from both
_BRUTE_KINDS = {
    "commuter": (("commuter",),),
    "left_right_nucleus": (("nucleus_left",), ("nucleus_right",)),
    "middle_nucleus": (("nucleus_middle",),),
    "nucleus": (_Z_ROWS[1:],),
    "center": (_Z_ROWS,),
}


def degreewise_set(algebra, which, bound):
    """Per-degree admissible-coefficient subspaces of the named structural set.

    The conditions are per-coefficient, so truncating at the bound loses
    nothing about degrees up to the bound.
    """
    if which not in SET_KINDS:
        raise ValueError(f"which must be one of {SET_KINDS}")
    if not 0 <= bound <= CRITERIA_BOUND_LIMIT:
        raise ValueError(f"bound must be between 0 and {CRITERIA_BOUND_LIMIT}")
    even, odd = (algebra._solve(kinds) for kinds in _KIND_ROWS[which])
    per_degree = {i: even if i % 2 == 0 else odd for i in range(bound + 1)}
    return DegreewiseSet(which, bound, per_degree)


def z_star_of_b(algebra, bound):
    """Star-fixed part of the center, degree by degree.

    The canonical involution acts on the degree-i coefficient by
    (-1)^i *^(i+1); its fixed-point condition is star-fixedness at even
    degrees, already part of the center's conditions, and -x = x at odd
    degrees, which forces x = 0 over the rationals.  So this is the center
    at even degrees and 0 at odd degrees.
    """
    center = degreewise_set(algebra, "center", bound)
    per_degree = {i: () if i % 2 else basis for i, basis in center.per_degree.items()}
    return DegreewiseSet("z_star", bound, per_degree)


# ----------------------------------------------------- degreewise sets: brute force
def _brute_primitive_rows(ring, key):
    """The rows of the identity ``kind`` on the degree-``degree`` coefficient,
    for ``key = (degree, kind)``: one per (degree, coordinate) of its ring value."""
    degree, kind = key
    n = ring.coeff_algebra.dim
    others = product(range(ring.period), range(n))
    return identity_rows(ring._basis, kind, [(degree, a) for a in range(n)], others)


def degreewise_set_bruteforce(algebra, which, bound):
    """Oracle for ``degreewise_set``: solve constraints from actual ring products.

    For the combined left/right set the two one-sided systems are solved
    separately; a mismatch would contradict the expected equality of the two
    nuclei and is raised instead of silently merged.
    """
    if which not in SET_KINDS:
        raise ValueError(f"which must be one of {SET_KINDS}")
    if not 0 <= bound <= BRUTE_BOUND_LIMIT:
        raise ValueError(f"bound must be between 0 and {BRUTE_BOUND_LIMIT}")
    ring = algebra.cached("star_skew_ring", lambda: star_skew_ring(algebra))
    rows = partial(_brute_primitive_rows, ring)
    per_degree = {}
    for degree in range(bound + 1):
        first, *others = (
            algebra._nullspace([(degree, kind) for kind in kinds], rows)
            for kinds in _BRUTE_KINDS[which]
        )
        for other in others:
            if other != first:
                raise ValueError(
                    f"left and right nucleus disagree at degree {degree}: "
                    f"{[e.coords for e in first]} vs {[e.coords for e in other]}"
                )
        per_degree[degree] = first
    return DegreewiseSet(which, bound, per_degree)
