"""The Cayley double and iterated doubling towers over the rationals.

Doubling an n-dimensional algebra keeps the original basis at indices
0..n-1 (the pairs (e_i, 0)) and appends the second copy (0, e_i) at indices
n..2n-1, so the base algebra embeds as an index-preserving prefix.  The
product and involution of the double are

    (a, b)(c, d) = (ac + mu d*b, da + bc*),        (a, b)* = (a*, -b).

Folding doubles over the scalar sequence (-1, -1, ...) produces the
rational forms of the complex numbers, quaternions, octonions and
sedenions; the +1 doublings give their split variants.
"""

from __future__ import annotations

from itertools import islice, product

from .algebra_core import AlgebraElement, StarAlgebra, StructureConstants, basis_element
from .linalg import LinearMap
from .scalars import simplify

NAMED_TOWERS = {
    "R": (),
    "C": (-1,),
    "C'": (1,),
    "H": (-1, -1),
    "H'": (1, 1),
    "O": (-1, -1, -1),
    "O'": (1, 1, 1),
    "S": (-1, -1, -1, -1),
}

ZERO_DIVISOR_BUDGET = 500_000


def rational_base():
    """The scalars as a one-dimensional algebra with the trivial involution."""
    sc = StructureConstants(1, (((1,),),), 0)
    return StarAlgebra(sc, LinearMap.from_rows(((1,),)))


def _pad(coords, n, first):
    zeros = (0,) * n
    return tuple(coords) + zeros if first else zeros + tuple(coords)


def cayley_double(algebra, mu):
    """Double the algebra with doubling scalar ``mu`` (nonzero, hence cancellable)."""
    mu = simplify(mu)
    if mu == 0:
        raise ValueError("mu must be a cancellable (nonzero) scalar")
    n = algebra.dim
    basis = algebra.basis()
    star = algebra.star
    mul = algebra.mul
    table = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        ei = basis[i]
        for j in range(n):
            ej = basis[j]
            table[i][j] = _pad(mul(ei, ej).coords, n, True)
            table[i][n + j] = _pad(mul(ej, ei).coords, n, False)
            table[n + i][j] = _pad(mul(ei, star(ej)).coords, n, False)
            table[n + i][n + j] = _pad(mul(star(ej), ei).scaled(mu).coords, n, True)
    old = algebra.involution.matrix
    block = [
        tuple(old[i]) + (0,) * n if i < n else
        (0,) * n + tuple(-1 if i - n == j else 0 for j in range(n))
        for i in range(2 * n)
    ]
    sc = StructureConstants(2 * n, table, algebra.sc.unit_index)
    return StarAlgebra(sc, LinearMap.from_rows(block))


def tower(mus):
    """Fold doubles over the scalar sequence, starting from the rationals."""
    algebra = rational_base()
    for mu in mus:
        algebra = cayley_double(algebra, mu)
    return algebra


def named(name):
    """One of the preset algebras R, C, C', H, H', O, O', S."""
    try:
        mus = NAMED_TOWERS[name]
    except KeyError:
        raise ValueError(
            f"unknown algebra {name!r}; valid names: {', '.join(NAMED_TOWERS)}"
        ) from None
    return tower(mus)


def _sparse_candidates(algebra):
    """Vectors with one or two +-1 entries, first nonzero entry +1."""
    n = algebra.dim
    singles = [basis_element(n, i) for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (1, -1):
                coords = [0] * n
                coords[i] = 1
                coords[j] = sign
                pairs.append(AlgebraElement(coords))
    return singles + pairs


def find_zero_divisor(algebra):
    """Search sparse +-1 vectors for a pair of nonzero elements with zero product.

    A hit is a genuine witness; exhausting the budget of
    ``ZERO_DIVISOR_BUDGET`` pairs proves nothing and is reported as None.
    """
    candidates = _sparse_candidates(algebra)
    for x, y in islice(product(candidates, repeat=2), ZERO_DIVISOR_BUDGET):
        if algebra.mul(x, y).is_zero():
            return (x, y)
    return None
