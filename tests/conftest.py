"""Shared fixtures and the dense references the tests compare the library to."""

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from flipcayley import AdditiveMap, AlgebraElement, FlipPolyRing, StarAlgebra, linalg, named
from flipcayley.scalars import parse_rational

ALL_NAMES = ("R", "C", "C'", "H", "H'", "O", "O'", "S")

# exact coordinates for the text-form round trips: signed ints and Fractions,
# zero drawn often
exact_scalars = st.one_of(
    st.just(0), st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6)
)


@pytest.fixture(scope="session")
def algebras():
    """Named algebras built once; their internal caches are shared by all tests."""
    return {name: named(name) for name in ALL_NAMES}


# ------------------------------------------------------- dense linear algebra
def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def is_zero_matrix(matrix):
    return all(not x for row in matrix for x in row)


def mat_inverse(matrix):
    """The inverse of an invertible square matrix, by Gauss-Jordan over Fractions."""
    n = len(matrix)
    rows = [
        [Fraction(x) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def subspace_le(inner, outer, ncols):
    red = linalg.span(outer, ncols)
    return all(red.contains(v) for v in inner)


def subspace_eq(a, b, ncols):
    return linalg.row_space(a, ncols) == linalg.row_space(b, ncols)


def subspace_intersect(a, b, ncols):
    rows = list(linalg.nullspace(a, ncols)) + list(linalg.nullspace(b, ncols))
    return linalg.nullspace(rows, ncols)


def subspace_sum(a, b, ncols):
    return linalg.row_space(list(a) + list(b), ncols)


# ------------------------------------------------ constraint rows, densely
def constraint_rows(A, maps):
    """Stacked rows of the matrices of the given linear maps, every row kept."""
    basis = A.basis()
    rows = []
    for f in maps:
        cols = [f(e).coords for e in basis]
        rows.extend(tuple(col[r] for col in cols) for r in range(A.dim))
    return rows


def raw_rows(A, kind):
    """The rows of one constraint kind of ``StarAlgebra._rows``, every row kept,
    built from the public ``mul``, ``associator`` and ``star``."""
    e = A.basis()
    mul, star = A.mul, A.star

    def comm(x, y):
        return mul(x, y) - mul(y, x)

    pairs = [(b, c) for b in e for c in e]
    maps = {
        "commuter": lambda: [lambda x, b=b: comm(x, b) for b in e],
        "star_fixed": lambda: [lambda x: star(x) - x],
        "negation_fixed": lambda: [lambda x: -x - x],
        "nucleus_left": lambda: [lambda x, b=b, c=c: A.associator(x, b, c) for b, c in pairs],
        "nucleus_middle": lambda: [lambda x, b=b, c=c: A.associator(b, x, c) for b, c in pairs],
        "nucleus_right": lambda: [lambda x, b=b, c=c: A.associator(b, c, x) for b, c in pairs],
        "kill_star_skew": lambda: [lambda x, b=b: mul(x, star(b) - b) for b in e],
        "kill_commutators": lambda: [
            lambda x, b=b, c=c: mul(x, comm(b, c)) for i, b in enumerate(e) for c in e[i + 1:]
        ],
        "swap_right": lambda: [
            lambda x, b=b, c=c: mul(mul(x, b), c) - mul(x, mul(c, b)) for b, c in pairs
        ],
        "outer_twist": lambda: [
            lambda x, b=b, c=c: mul(mul(b, c), x) - mul(c, mul(b, x)) for b, c in pairs
        ],
        "exchange_right": lambda: [
            lambda x, b=b, c=c: mul(mul(x, b), c) - mul(mul(x, c), b) for b, c in pairs
        ],
        "exchange_left": lambda: [
            lambda x, b=b, c=c: mul(b, mul(c, x)) - mul(c, mul(b, x)) for b, c in pairs
        ],
    }[kind]()
    return constraint_rows(A, maps)


def memoized_mul(ring):
    """``ring.mul`` memoized by the operands' terms (elements hash by their
    coordinates), for references that repeat the same products; the memo
    lives as long as the returned function."""
    products = {}

    def mul(p, q):
        key = tuple(p.coeffs.items()), tuple(q.coeffs.items())
        product = products.get(key)
        if product is None:
            product = products[key] = ring.mul(p, q)
        return product

    return mul


def pi_value(ring, i, m, s):
    """pi_i^m(s) through ``ring.pi_matrix``, whose None is the zero map."""
    pmap = ring.pi_matrix(i, m)
    return ring.coeff_algebra.zero() if pmap is None else AlgebraElement(pmap.apply(s.coords))


# -------------------------------------------------------------- json export
def assert_json_is_algebra(data, A):
    """The exported dict holds every product e_i e_j and the star matrix of
    ``A`` as ``p/q`` strings, with the unit at e_0."""
    assert (data["dim"], data["unit_index"]) == (A.dim, 0)
    e = A.basis()
    table = [[[parse_rational(c) for c in entry] for entry in row] for row in data["table"]]
    assert table == [[list(A.mul(a, b).coords) for b in e] for a in e]
    star = [[parse_rational(c) for c in row] for row in data["star"]]
    assert star == [list(row) for row in A.involution.matrix]


# --------------------------------------------------- algebras off the tower
def exchange_algebra(rng, d, density=1):
    """A + A^op with the swap star, for a random unital d-dimensional algebra A.

    Each product of two non-unit basis elements of A is nonzero with
    probability ``density``.
    Basis: (1, 1), then (e_i, 0) for i >= 1, (1, 0), then (0, e_i) for i >= 1.
    """
    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def product():
        if density < 1 and rng.random() >= density:
            return (0,) * d
        return tuple(scalar() for _ in range(d))

    unit = [tuple(int(k == j) for k in range(d)) for j in range(d)]
    a_table = [[unit[i or j] if i * j == 0 else product() for j in range(d)] for i in range(d)]

    def a_mul(x, y):
        out = [0] * d
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k, t in enumerate(a_table[i][j]):
                    out[k] += xi * yj * t
        return out

    def pair(k):
        x, y = [0] * d, [0] * d
        if k == 0:
            x[0] = y[0] = 1
        elif k < d:
            x[k] = 1
        elif k == d:
            x[0] = 1
        else:
            y[k - d] = 1
        return x, y

    def coords(x, y):
        return [y[0], *x[1:], x[0] - y[0], *y[1:]]

    pairs = [pair(k) for k in range(2 * d)]
    table = [
        [enumerate(coords(a_mul(x1, x2), a_mul(y2, y1))) for x2, y2 in pairs]
        for x1, y1 in pairs
    ]
    star_cols = [coords(y, x) for x, y in pairs]
    star = [[col[i] for col in star_cols] for i in range(2 * d)]
    return StarAlgebra(table, linalg.LinearMap.from_rows(star))


def exchange_algebras(seed=20261017):
    """Five exchange algebras of dimensions 4 and 6, with multi-term tables."""
    rng = random.Random(seed)
    return [
        (f"exchange d={d} #{n}", exchange_algebra(rng, d)) for n, d in enumerate((2, 3, 3, 3, 3))
    ]


def sparse_exchange_algebras(seed=20261029):
    """Two exchange algebras of dimension 6 where A has few nonzero products.

    On them the pair row kinds of ``StarAlgebra._rows`` have ranks strictly
    between 0 and 6, and the odd-degree left/right nucleus of the second is
    nonzero.
    """
    rng = random.Random(seed)
    return [(f"sparse exchange d=3 #{n}", exchange_algebra(rng, 3, 1 / 4)) for n in range(2)]


def matrix_algebra(involution):
    """M_2(Q) on the basis 1, E12, E21, E11 - E22, with the ``"transpose"`` or
    the ``"adjugate"`` involution.

    The adjugate is a scalar involution (a a* = det a), so its norms commute;
    the norms of the transpose do not.
    """
    basis = [((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1))]

    def coords(m):
        (p, q), (r, s) = m
        return [Fraction(p + s, 2), q, r, Fraction(p - s, 2)]

    def star(m):
        (p, q), (r, s) = m
        return ((p, r), (q, s)) if involution == "transpose" else ((s, -q), (-r, p))

    table = [[enumerate(coords(mat_mul(x, y))) for y in basis] for x in basis]
    star_cols = [coords(star(m)) for m in basis]
    star_rows = [[col[i] for col in star_cols] for i in range(4)]
    return StarAlgebra(table, linalg.LinearMap.from_rows(star_rows))


def matrix_algebras():
    """M_2(Q) with the transpose and with the adjugate involution."""
    return [(f"M_2(Q) {name}", matrix_algebra(name)) for name in ("transpose", "adjugate")]


def triangular_algebras():
    """Upper triangular 2x2 rational matrices, with the star a -> J a^T J for
    the exchange matrix J (it swaps E11 and E22 and fixes E12), on two bases.

    On (1, E22, E12) the first zero divisor of the search is E22 (1 - E22).
    On (1, 2 E11, E12) the prefix (1, 2 E11) has no +-1 zero divisor, and
    E12 (2 E11) = 0 while (2 E11) E12 = 2 E12, so the first hit depends on
    the order of the operands.  On both the commutators span E12, so
    x(bc) - x(cb) = 0 keeps a proper subspace (the matrices with a zero
    (1, 1) entry).
    """
    return [
        ("triangular", StarAlgebra(
            [[[(0, 1)], [(1, 1)], [(2, 1)]], [[(1, 1)], [(1, 1)], []], [[(2, 1)], [(2, 1)], []]],
            linalg.LinearMap.from_rows([[1, 1, 0], [0, -1, 0], [0, 0, 1]]),
        )),
        ("ordered triangular", StarAlgebra(
            [[[(0, 1)], [(1, 1)], [(2, 1)]], [[(1, 1)], [(1, 2)], [(2, 2)]], [[(2, 1)], [], []]],
            linalg.LinearMap.from_rows([[1, 2, 0], [0, -1, 0], [0, 0, 1]]),
        )),
    ]


def rebased(A, basis):
    """``A`` on a new basis, given as coordinate vectors in A's basis with the
    unit first: the same algebra, with other structure constants and star."""
    inverse = mat_inverse([[v[i] for v in basis] for i in range(A.dim)])

    def coords(x):
        return [sum(r * c for r, c in zip(row, x.coords)) for row in inverse]

    f = [A.element(v) for v in basis]
    table = [[enumerate(coords(A.mul(x, y))) for y in f] for x in f]
    star_cols = [coords(A.star(x)) for x in f]
    star = [[col[i] for col in star_cols] for i in range(A.dim)]
    return StarAlgebra(table, linalg.LinearMap.from_rows(star))


def rebased_octonions():
    """The octonions on the basis e_0, e_1 + e_0/3, e_2 + e_1/2, e_j + e_(j-1):
    a flexible, non-associative algebra whose star is not diagonal and has
    denominator 3."""
    basis = [[int(i == j) for i in range(8)] for j in range(8)]
    basis[1][0] = Fraction(1, 3)
    basis[2][1] = Fraction(1, 2)
    for j in range(3, 8):
        basis[j][j - 1] = 1
    return rebased(named("O"), basis)


def twisted_group_algebras(seed=20261019):
    """Two seeded monomial algebras off the tower, of dimensions 4 and 8:
    e_i e_j = g(i, j) e_(i xor j) with random nonzero signs g, some of them
    Fractions, and a diagonal star e_j* = s_j e_j.  Anti-multiplicativity
    fixes g(j, i) = s_i s_j s_(i xor j) g(i, j) for i < j; the rest is free,
    so they are neither flexible nor alternative."""
    rng = random.Random(seed)
    cases = []
    for n in (4, 8):
        s = [1] + [rng.choice((1, -1)) for _ in range(n - 1)]
        g = [[1] * n for _ in range(n)]
        for i in range(1, n):
            for j in range(i, n):
                g[i][j] = rng.choice((1, -1, 2, Fraction(-1, 2), Fraction(3, 2)))
                g[j][i] = s[i] * s[j] * s[i ^ j] * g[i][j] if i < j else g[i][j]
        table = [[[(i ^ j, g[i][j])] for j in range(n)] for i in range(n)]
        star = [[s[i] if i == j else 0 for j in range(n)] for i in range(n)]
        cases.append((f"twisted group algebra dim {n}", StarAlgebra(
            table, linalg.LinearMap.from_rows(star)
        )))
    return cases


# ------------------------------------------------ rings with random sigma, delta
def _map_of(A, f, kind):
    """The ``AdditiveMap`` of the given kind whose column j is f(e_j)."""
    cols = [f(e).coords for e in A.basis()]
    return AdditiveMap([[col[i] for col in cols] for i in range(A.dim)], kind)


def _sparse_fraction_map(rng, A, kind):
    """A seeded map with a few Fraction entries off column 0, which is e_0
    for a sigma (it must fix 1) and zero for a delta (it must kill 1)."""
    rows = [[0] * A.dim for _ in range(A.dim)]
    if kind == "sigma":
        rows[0][0] = 1
    for _ in range(A.dim):
        rows[rng.randrange(A.dim)][rng.randrange(1, A.dim)] = Fraction(
            rng.randint(-3, 3), rng.randint(1, 3)
        )
    return AdditiveMap(rows, kind)


def random_sigma_delta_rings(algebras):
    """64 flipped rings ``(name, s, d, ring)`` over C, C', H and H' with
    seeded sigma and delta.

    The left criterion needs delta to be a sigma-derivation on both sides;
    x -> ax - sigma(x)a is one on the left only and x -> xa - a sigma(x) on
    the right only, when sigma is an automorphism such as x -> u x u^-1.
    """
    rng = random.Random(20261018)
    for name in ("C", "C'", "H", "H'"):
        A = algebras[name]
        u = A.unit + A.basis()[1].scaled(2)
        u_inv = A.star(u).scaled(Fraction(1, A.mul(u, A.star(u)).coords[0]))
        a = A.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(A.dim))
        sigmas = [
            AdditiveMap.identity(A.dim),
            AdditiveMap.from_star(A),
            _map_of(A, lambda x: A.mul(A.mul(u, x), u_inv), "sigma"),
            _sparse_fraction_map(rng, A, "sigma"),
        ]
        for s, sigma in enumerate(sigmas):
            deltas = [
                AdditiveMap.zero(A.dim),
                _map_of(A, lambda x: A.mul(a, x) - A.mul(sigma(x), a), "delta"),
                _map_of(A, lambda x: A.mul(x, a) - A.mul(a, sigma(x)), "delta"),
                _sparse_fraction_map(rng, A, "delta"),
            ]
            for d, delta in enumerate(deltas):
                yield name, s, d, FlipPolyRing(A, sigma, delta, flipped=True)
