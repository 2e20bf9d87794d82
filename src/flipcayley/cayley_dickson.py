"""The Cayley double and iterated doubling towers over the rationals.

Doubling an n-dimensional algebra keeps the original basis at indices
0..n-1 (the pairs (e_i, 0)) and appends the second copy (0, e_i) at indices
n..2n-1, so the base algebra embeds as an index-preserving prefix.  The
product and involution of the double are

    (a, b)(c, d) = (ac + mu d*b, da + bc*),        (a, b)* = (a*, -b).

The double's table is written as sparse pairs from the parent's table and
star columns alone: the parent's entries are copied (shifted by n for
e_i (0, e_j) = (0, e_j e_i)) wherever no star enters, and
(0, e_i)(e_j, 0) = (0, e_i e_j*) and (0, e_i)(0, e_j) = (mu e_j* e_i, 0) are
sums of table entries over the nonzero entries of star column j.

A monomial parent (e_i e_j = g(i, j) e_(i xor j), e_j* = s_j e_j), as every
tower is, is doubled on its signs alone, checked by ``StarAlgebra._from_signs``:
g' has the blocks g(i, j), g(j, i), s_j g(i, j), mu s_j g(j, i) (rows i then
n + i, columns j then n + j), and s' = (s, -1, ..., -1).

Folding doubles over the scalar sequence (-1, -1, ...) produces the
rational forms of the complex numbers, quaternions, octonions and
sedenions; the +1 doublings give their split variants.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from operator import add, mul

from .algebra_core import AlgebraElement, StarAlgebra
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
# the most doublings ``tower`` accepts: dim 512, a table of 2^18 entries
MAX_DOUBLINGS = 9


def rational_base():
    """The scalars as a one-dimensional algebra with the trivial involution."""
    return StarAlgebra([[[(0, 1)]]], LinearMap.identity(1))


def _combination(col, entry, scale, shift=0):
    """``scale`` times the sum of c ``entry(k)`` over the pairs (k, c) of a star
    column, as sparse ``(index + shift, coeff)`` pairs (zeros may remain)."""
    out = {}
    for k, c in col:
        for m, t in entry(k):
            out[m] = out.get(m, 0) + c * t
    return tuple((m + shift, scale * x) for m, x in out.items())


def cayley_double(algebra, mu):
    """Double the algebra with doubling scalar ``mu`` (nonzero, hence cancellable)."""
    mu = simplify(mu)
    if mu == 0:
        raise ValueError("mu must be a cancellable (nonzero) scalar")
    n = algebra.dim
    old, star = algebra.table, algebra.involution
    g = algebra._signs()
    if g is not None:  # e_j* = s_j e_j; cols[i] lists the g(j, i)
        s = tuple(col[0][1] // star.den for col in star.cols)
        mu_s, cols = [mu * x for x in s], tuple(zip(*g))
        bottom = tuple(
            tuple(map(mul, s, row)) + tuple(map(simplify, map(mul, mu_s, col)))
            for row, col in zip(g, cols)
        )
        return StarAlgebra._from_signs(tuple(map(add, g, cols)) + bottom, s + (-1,) * n)
    table = [
        old[i] + tuple(tuple((k + n, c) for k, c in old[j][i]) for j in range(n))
        for i in range(n)
    ]
    # e_j* is the sum over (k, c) in star.cols[j] of (c / den) e_k
    over_den = simplify(Fraction(1, star.den))
    mu_over_den = simplify(Fraction(mu, star.den))
    for i in range(n):
        table.append(  # e_i e_j*, then mu e_j* e_i
            [_combination(col, lambda k: old[i][k], over_den, n) for col in star.cols]
            + [_combination(col, lambda k: old[k][i], mu_over_den) for col in star.cols]
        )
    second = tuple(((n + j, -star.den),) for j in range(n))
    return StarAlgebra(table, LinearMap(2 * n, star.cols + second, star.den))


def tower(mus):
    """Fold doubles over the scalar sequence, starting from the rationals."""
    mus = tuple(mus)
    if len(mus) > MAX_DOUBLINGS:
        raise ValueError(f"at most {MAX_DOUBLINGS} doublings are allowed, got {len(mus)}")
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


def _zero_divisor_candidates(n):
    """Vectors with one or two +-1 entries, first nonzero entry +1, in search
    order, as sparse ``((index, sign), ...)`` terms."""
    for i in range(n):
        yield ((i, 1),)
    for i in range(n):
        for j in range(i + 1, n):
            yield ((i, 1), (j, 1))
            yield ((i, 1), (j, -1))


def find_zero_divisor(algebra):
    """Search sparse +-1 vectors for a pair of nonzero elements with zero product.

    The pairs of each prefix e_0..e_(s-1), for s = 1, 2, 4, ... and then the
    whole basis, are tried in turn, with one budget of ``ZERO_DIVISOR_BUDGET``
    pairs for all of them.  A tower embeds each earlier level as such a prefix,
    so the sedenions' pair is found early on every deeper ``-1`` tower.  The
    candidates are generated lazily and each product is summed from at most
    four table entries; only the returned pair becomes ``AlgebraElement``s.
    A hit is a genuine witness; exhausting the budget proves nothing and is
    reported as None.
    """
    n, table = algebra.dim, algebra.table
    sizes = [2**i for i in range((n - 1).bit_length())] + [n]
    pairs = (
        (x, y)
        for size in sizes
        for x in _zero_divisor_candidates(size)
        for y in _zero_divisor_candidates(size)
    )
    for x, y in islice(pairs, ZERO_DIVISOR_BUDGET):
        out = {}
        for r, u in x:
            for s, v in y:
                for k, t in table[r][s]:
                    out[k] = out.get(k, 0) + u * v * t
        if not any(out.values()):
            return tuple(AlgebraElement([dict(t).get(k, 0) for k in range(n)]) for t in (x, y))
    return None
