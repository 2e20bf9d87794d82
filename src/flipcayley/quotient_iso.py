"""Reduction modulo X^2 - mu and the structural identifications around it.

The quotient of the flipped star-skew ring by X^2 - mu keeps the canonical
representative a + bX of every class, folding X^(2n) into mu^n and
X^(2n+1) into mu^n X.  ``QuotientRing`` works in the coordinates of the
doubled algebra: the element a-coords ++ b-coords of dimension 2n stands for
the class of a + bX.  It multiplies two classes and applies the involution
alpha in the ring itself, then reduces; its star-algebra table reads the
ring's cached basis products and folds them alike, so it holds no formula
of its own.  Theorem 1 says the result is the product and star of
``cayley_dickson.cayley_double`` on the same elements (same basis ordering,
by construction).  The ring does not depend on mu: every quotient of one
algebra reads the algebra's cached ``star_skew_ring``, the ring the
brute-force oracles also use.

The un-quotiented ring is itself a double, on plain pairs ``(p, q)``: of the
ordinary polynomial algebra in a central variable t, with t as the doubling
scalar.  The identification substitutes t -> X^2 in p and t -> X^2 followed
by a right factor X in q.
"""

from __future__ import annotations

from .algebra_core import AlgebraElement, StarAlgebra, basis_element
from .flip_poly import Poly, ordinary_ring, star_skew_ring
from .involutions import alpha
from .linalg import LinearMap
from .scalars import simplify


class QuotientRing:
    """The flipped star-skew ring modulo X^2 - mu, in the double's coordinates.

    An element of dimension 2n holds the coordinates of a, then of b, for the
    class of a + bX.
    """

    def __init__(self, algebra, mu):
        mu = simplify(mu)
        if mu == 0:
            raise ValueError("mu must be a cancellable (nonzero) scalar")
        self.algebra = algebra
        self.mu = mu
        self.ring = algebra.cached("star_skew_ring", lambda: star_skew_ring(algebra))

    def lift(self, u):
        """The representative a + bX of the class with coordinates a ++ b."""
        n = self.algebra.dim
        if len(u.coords) != 2 * n:
            raise ValueError("expected an element of the doubled algebra")
        return Poly({0: AlgebraElement(u.coords[:n]), 1: AlgebraElement(u.coords[n:])})

    def reduce(self, p):
        """The halves of ``psi_inv`` at t = mu: X^(2n) -> mu^n, X^(2n+1) -> mu^n X."""
        a, b = (
            sum((c.scaled(self.mu ** d) for d, c in half.coeffs.items()), self.algebra.zero())
            for half in psi_inv(self.algebra, p)
        )
        return AlgebraElement._trusted(a.coords + b.coords)

    def mul(self, u, v):
        """Multiply the representatives in the ring, then reduce."""
        return self.reduce(self.ring.mul(self.lift(u), self.lift(v)))

    def star(self, u):
        """The involution alpha of the ring, pushed down to the quotient."""
        return self.reduce(alpha(self.ring, self.lift(u)))

    def to_star_algebra(self):
        """Structure constants of the quotient on the basis e_0 .. e_(2n-1).

        Entry (a, i) x (b, j) reads the ring's cached basis product
        (e_i X^a)(e_j X^b) and folds it as ``reduce`` does: a term at degree d
        goes to slot k + n (d mod 2), times mu^(d // 2).  The public
        constructor checks the result; the star is ``star`` on the basis.
        """
        n, mu, products = self.algebra.dim, self.mu, self.ring._basis
        slots = [(a, i) for a in (0, 1) for i in range(n)]  # e_i X^a, in the double's order
        table = [
            [[(k + n * (d % 2), c * mu ** (d // 2)) for (d, k), c in products[u][v]] for v in slots]
            for u in slots
        ]
        star_cols = [self.star(basis_element(2 * n, k)).coords for k in range(2 * n)]
        return StarAlgebra(table, LinearMap.from_rows(zip(*star_cols)))


# ----------------------------------------------- the double of the polynomial ring
def _star_coeffwise(algebra, p):
    return Poly({d: algebra.star(c) for d, c in p.coeffs.items()})


def _t_shift(p):
    return Poly({d + 1: c for d, c in p.coeffs.items()})


def cayley_t_mul(algebra, u, v):
    """Product in the double of the ordinary polynomial algebra, scalar t.

    Multiplication by the doubling scalar is a degree shift in t.  All calls
    on one algebra share its cached ordinary ring.
    """
    ring = algebra.cached("ordinary_ring", lambda: ordinary_ring(algebra))
    (p, q), (r, s) = u, v
    first = ring.mul(p, r) + _t_shift(ring.mul(_star_coeffwise(algebra, s), q))
    second = ring.mul(s, p) + ring.mul(q, _star_coeffwise(algebra, r))
    return first, second


def cayley_t_star(algebra, u):
    return _star_coeffwise(algebra, u[0]), -u[1]


def psi(algebra, pair):
    """(p(t), q(t)) -> p(X^2) + q(X^2) X."""
    p, q = pair
    acc = {2 * d: c for d, c in p.coeffs.items()}
    acc.update({2 * d + 1: c for d, c in q.coeffs.items()})
    return Poly(acc)


def psi_inv(algebra, p):
    """Split by degree parity into the pair ``(even, odd)``; inverse of ``psi``.

    On the star-skew ring the even slot multiplies in ``ordinary_ring(algebra)``,
    t = X^2: sigma squares to the identity and delta is zero.
    """
    halves = ({}, {})  # even, odd; each stays sorted and free of zeros
    for degree, coeff in p.coeffs.items():
        halves[degree % 2][degree // 2] = coeff
    return tuple(map(Poly._trusted, halves))
