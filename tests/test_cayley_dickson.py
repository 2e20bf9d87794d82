import tracemalloc
from fractions import Fraction
from itertools import chain, islice, product

import pytest

from flipcayley import (
    AlgebraElement,
    StarAlgebra,
    basis_element,
    cayley_dickson,
    cayley_double,
    find_zero_divisor,
    named,
    rational_base,
    tower,
)
from flipcayley.linalg import LinearMap
from conftest import (
    exchange_algebras,
    matrix_algebras,
    sparse_exchange_algebras,
    triangular_algebras,
)


def test_double_of_base_gives_imaginary_unit():
    C = cayley_double(rational_base(), -1)
    i = basis_element(2, 1)
    assert C.mul(i, i) == -C.unit


def test_split_double_gives_square_root_of_one():
    Cs = cayley_double(rational_base(), 1)
    j = basis_element(2, 1)
    assert Cs.mul(j, j) == Cs.unit


def test_double_of_complex_reproduces_ij_equals_k():
    H = cayley_double(tower([-1]), -1)
    i = basis_element(4, 1)
    j = basis_element(4, 2)
    assert H.mul(i, j) == basis_element(4, 3)


def test_tower_dimensions():
    for n in range(6):
        assert tower([-1] * n).dim == 2 ** n


def test_empty_tower_is_the_scalars():
    R = tower([])
    assert R.dim == 1
    assert R.mul(R.unit, R.unit) == R.unit
    assert R.involution.is_identity()


def test_tower_with_fractional_scalar():
    A = tower([Fraction(-1, 4)])
    i = basis_element(2, 1)
    assert A.mul(i, i) == A.unit.scaled(Fraction(-1, 4))


def test_tower_rejects_more_than_max_doublings():
    with pytest.raises(ValueError, match="at most"):
        tower([-1] * (cayley_dickson.MAX_DOUBLINGS + 1))
    assert cayley_dickson.MAX_DOUBLINGS >= 8  # dim 256 stays buildable


def test_mu_zero_rejected():
    with pytest.raises(ValueError):
        cayley_double(rational_base(), 0)
    with pytest.raises(ValueError):
        tower([-1, 0])


def test_named_presets(algebras):
    assert algebras["R"].dim == 1
    assert algebras["C"].dim == 2
    assert algebras["H"].dim == 4
    assert algebras["O"].dim == 8
    assert algebras["S"].dim == 16
    H = algebras["H"]
    assert H.is_associative() and not H.is_commutative()
    Os = algebras["O'"]
    assert Os.is_alternative() and not Os.is_associative()
    S = algebras["S"]
    assert not S.is_alternative()


def test_named_unknown():
    with pytest.raises(ValueError):
        named("Q")


def test_properties_degrade_along_tower(algebras):
    expected = {
        1: (True, True, True, True),
        2: (True, True, True, True),
        4: (False, True, True, True),
        8: (False, False, True, True),
        16: (False, False, False, True),
    }
    for name in ("R", "C", "H", "O", "S"):
        A = algebras[name]
        flags = (
            A.is_commutative(),
            A.is_associative(),
            A.is_alternative(),
            A.is_flexible(),
        )
        assert flags == expected[A.dim]


def test_no_zero_divisors_in_division_algebras(algebras):
    assert find_zero_divisor(algebras["H"]) is None
    assert find_zero_divisor(algebras["C"]) is None


def test_split_complex_zero_divisor(algebras):
    Cs = algebras["C'"]
    x, y = find_zero_divisor(Cs)
    # (1 + j)(1 - j) = 1 - j^2 = 0 is the first sparse hit
    assert x.coords == (1, 1)
    assert y.coords == (1, -1)
    assert Cs.mul(x, y).is_zero()


def test_sedenion_zero_divisor(algebras):
    S = algebras["S"]
    pair = find_zero_divisor(S)
    assert pair is not None
    x, y = pair
    assert not x.is_zero() and not y.is_zero()
    assert S.mul(x, y).is_zero()


def test_split_octonions_have_zero_divisors(algebras):
    pair = find_zero_divisor(algebras["O'"])
    assert pair is not None


def test_search_budget_exhaustion(algebras, monkeypatch):
    monkeypatch.setattr(cayley_dickson, "ZERO_DIVISOR_BUDGET", 1)
    assert find_zero_divisor(algebras["S"]) is None


def _dense_zero_divisor(algebra, budget):
    """The dense search route: the candidates of each prefix e_0..e_(s-1),
    s = 1, 2, 4, ... and then dim, built up front as ``AlgebraElement``s,
    singles then pairs, and each pair multiplied by ``mul``; ``(k, (x, y))``
    for the k-th pair over all prefixes, the first with zero product, or None."""
    n = algebra.dim
    sizes = []
    while not sizes or sizes[-1] < n:
        sizes.append(min(2 * sizes[-1], n) if sizes else 1)
    pairs = []
    for size in sizes:
        candidates = [basis_element(n, i) for i in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                for sign in (1, -1):
                    coords = [0] * n
                    coords[i], coords[j] = 1, sign
                    candidates.append(AlgebraElement(coords))
        pairs.append(product(candidates, repeat=2))
    for k, (x, y) in enumerate(islice(chain.from_iterable(pairs), budget)):
        if algebra.mul(x, y).is_zero():
            return k, (x, y)
    return None


def test_zero_divisor_search_matches_the_dense_route(algebras, monkeypatch):
    """The lazy sparse search returns the dense route's first hit, or None
    with it, at the default budget and at the budgets that stop just before
    and just after that hit."""
    default = cayley_dickson.ZERO_DIVISOR_BUDGET
    ordered = dict(triangular_algebras())["ordered triangular"]
    e = ordered.basis()
    assert [x.coords for x in find_zero_divisor(ordered)] == [e[2].coords, e[1].coords]
    assert not ordered.mul(e[1], e[2]).is_zero()
    cases = [(name, algebras[name]) for name in ("C", "H", "C'", "H'", "O'", "S")]
    cases += [("tower(1/2, 3)", tower([Fraction(1, 2), 3]))]
    cases += triangular_algebras() + matrix_algebras()
    for name, A in cases:
        dense = _dense_zero_divisor(A, default)
        if dense is None:
            assert find_zero_divisor(A) is None, name
            continue
        k, want = dense
        for budget, expected in ((default, want), (k, None), (k + 1, want)):
            monkeypatch.setattr(cayley_dickson, "ZERO_DIVISOR_BUDGET", budget)
            got = find_zero_divisor(A)
            if expected is None:
                assert got is None, (name, budget)
            else:
                assert [e.coords for e in got] == [e.coords for e in expected], (name, budget)


def test_deep_towers_find_the_sedenion_zero_divisor():
    """Each deeper -1 tower holds the sedenions as its prefix e_0..e_15, so
    the search finds their first pair there, within the budget."""
    A = tower([-1] * 5)
    for _ in range(4):  # dim 64 to 512
        A = cayley_double(A, -1)
        x, y = find_zero_divisor(A)
        assert (x.coords[:16], y.coords[:16]) == (
            tuple(1 if i in (1, 10) else 0 for i in range(16)),
            tuple({4: 1, 15: -1}.get(i, 0) for i in range(16)),
        ), A.dim
        assert not any(x.coords[16:] + y.coords[16:]), A.dim


def test_zero_divisor_search_builds_no_candidate_list(monkeypatch):
    """At dim 128 the dense route held all 16,384 candidates as elements of
    128 coordinates before its first product; the lazy search, stopped by a
    small budget before any hit, stays far below that."""
    A = tower([-1] * 7)
    monkeypatch.setattr(cayley_dickson, "ZERO_DIVISOR_BUDGET", 20_000)
    tracemalloc.start()
    try:
        assert find_zero_divisor(A) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000, peak


def test_double_validates_star_axioms():
    # doubling preserves the star-algebra invariants; constructor re-checks them
    A = rational_base()
    for mu in (-1, 1, Fraction(2, 3)):
        A2 = cayley_double(A, mu)
        assert A2.dim == 2
        m = A2.involution.matrix
        assert m[1][1] == -1


# ------------------------------------------------ the sparse double, densely
def dense_double(algebra, mu):
    """The double through dense products and stars of basis elements: the
    reference for ``cayley_double``, which reads the table and star columns."""
    n = algebra.dim
    old, basis = algebra.table, algebra.basis()
    stars = [algebra.star(e) for e in basis]
    table = [
        old[i] + tuple(tuple((k + n, c) for k, c in old[j][i]) for j in range(n))
        for i in range(n)
    ]
    for e in basis:
        table.append(
            [enumerate(algebra.mul(e, s).coords, n) for s in stars]
            + [enumerate(algebra.mul(s, e).scaled(mu).coords) for s in stars]
        )
    star = algebra.involution
    second = tuple(((n + j, -star.den),) for j in range(n))
    return StarAlgebra(table, LinearMap(2 * n, star.cols + second, star.den))


def twisted_quaternions():
    """H with the star x -> u x* u^-1, u = i + 2j, whose columns have denominator 5."""
    H = tower([-1, -1])
    u = basis_element(4, 1) + basis_element(4, 2).scaled(2)
    u_inv = u.scaled(Fraction(-1, 5))
    cols = [H.mul(H.mul(u, H.star(e)), u_inv).coords for e in H.basis()]
    return StarAlgebra(H.table, LinearMap.from_rows(zip(*cols)))


def assert_doubles_agree(A, mu):
    """The sparse double of A equals the dense one, with exact entries; returns it."""
    double, reference = cayley_double(A, mu), dense_double(A, mu)
    assert (double.table, double.involution) == (reference.table, reference.involution)
    assert {int, Fraction}.issuperset(
        type(c) for row in double.table for entry in row for _, c in entry
    )
    return double


OTHER_MU_TOWERS = [
    (Fraction(1, 2), 3, -1, 1),
    (1, 1, 1),
    (Fraction(2, 3), -1, 5),
    (Fraction(-3, 7), Fraction(5, 2), -1),
    (Fraction(1, 2), 2, Fraction(-1, 3), 3),  # products of the mus that are whole
]


@pytest.mark.parametrize("mus", [(-1,) * 7] + OTHER_MU_TOWERS)  # -1 up to dim 128
def test_sparse_double_matches_dense_on_towers(mus):
    A = rational_base()
    for mu in mus:
        A = assert_doubles_agree(A, mu)


@pytest.mark.parametrize("mu", [-1, Fraction(2, 3)])
def test_sparse_double_matches_dense_off_the_tower(mu):
    # multi-term tables, non-diagonal stars, and a star with denominator 5
    others = matrix_algebras() + exchange_algebras() + sparse_exchange_algebras()
    twisted = twisted_quaternions()
    assert twisted.involution.den == 5
    for _, A in others + [("twisted H", twisted)]:
        assert_doubles_agree(A, mu)


# ------------------------------------------ the sign route, against the checks
def public_from_signs(signs, star_signs):
    """The monomial algebra of ``StarAlgebra._from_signs`` through the public,
    fully checked constructor."""
    n = len(signs)
    table = [[((i ^ j, g),) for j, g in enumerate(row)] for i, row in enumerate(signs)]
    return StarAlgebra(table, LinearMap(n, tuple(((j, s),) for j, s in enumerate(star_signs))))


def build_outcome(build, signs, star_signs):
    """The constructor's ValueError message, or the table, star and sign
    matrix of the algebra it accepted."""
    try:
        A = build(signs, star_signs)
    except ValueError as err:
        return str(err)
    return A.table, A.involution, A._signs()


def flipped(values, *index):
    """A copy of the nested tuple with the entry at ``index`` negated."""
    if len(index) == 1:
        (i,) = index
        return values[:i] + (-values[i],) + values[i + 1:]
    i, rest = index[0], index[1:]
    return values[:i] + (flipped(values[i], *rest),) + values[i + 1:]


@pytest.mark.parametrize("name", ["H", "O"])
def test_sign_route_checks_match_the_public_constructor(algebras, name):
    """Every single-entry sign flip of the sign matrix and of the star signs
    of H and O: the sign route raises exactly when the public constructor
    raises, with its message, and otherwise builds the same algebra."""
    A = algebras[name]
    g, s = A._signs(), tuple(col[0][1] for col in A.involution.cols)
    cases = {("g", i, j): (flipped(g, i, j), s) for i, j in product(range(A.dim), repeat=2)}
    cases.update({("s", j): (g, flipped(s, j)) for j in range(A.dim)})
    cases["s", "doubled"] = (g, (1,) + tuple(2 * x for x in s[1:]))
    outcomes = {}
    for case, (signs, star_signs) in cases.items():
        want = build_outcome(public_from_signs, signs, star_signs)
        assert build_outcome(StarAlgebra._from_signs, signs, star_signs) == want, case
        outcomes[case] = want if isinstance(want, str) else "accepted"
    assert outcomes["g", 1, 2] == "involution must be anti-multiplicative"
    assert outcomes["g", 0, 3] == "unit axiom fails: e0 is not a two-sided unit at e3"
    assert outcomes["g", 3, 3] == "accepted"
    assert outcomes["s", 0] == "involution must fix the unit"
    assert outcomes["s", "doubled"] == "involution must square to the identity"


@pytest.mark.parametrize("mus", [(-1,) * 8] + OTHER_MU_TOWERS)  # -1 up to dim 256
def test_sign_route_double_matches_the_public_constructor(mus):
    """Each monomial double is built on its sign matrix, which it caches; the
    public constructor accepts its table and star and scans the same signs.
    The tables are compared by ``repr``, so a whole ``Fraction`` left in place
    of an ``int`` shows."""
    B = rational_base()
    for mu in mus:
        B = cayley_double(B, mu)
        seeded = B._cache["signs"]
        checked = StarAlgebra(B.table, B.involution)
        assert "signs" not in checked._cache
        assert checked.involution == B.involution, B.dim
        assert repr((checked.table, checked._signs())) == repr((B.table, seeded)), B.dim
