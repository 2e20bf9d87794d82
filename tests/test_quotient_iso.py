import random
from fractions import Fraction
from itertools import product

import pytest

from flipcayley import (
    AlgebraElement,
    FlipPolyRing,
    named,
    ordinary_ring,
    Poly,
    QuotientRing,
    alpha,
    basis_element,
    cayley_double,
    cayley_t_mul,
    cayley_t_star,
    psi,
    psi_inv,
    star_skew_ring,
    tower,
)
from flipcayley import quotient_iso
from flipcayley.cayley_dickson import NAMED_TOWERS
from flipcayley import structure_analysis as sa

from conftest import (
    exchange_algebras,
    matrix_algebras,
    rebased_octonions,
    sparse_exchange_algebras,
    triangular_algebras,
    twisted_group_algebras,
)


def rand_poly(algebra, rng, max_degree):
    return Poly(
        {
            d: AlgebraElement(rng.randint(-2, 2) for _ in range(algebra.dim))
            for d in range(max_degree + 1)
        }
    )


def test_quotients_share_the_algebra_ring():
    # the ring does not depend on mu; the brute-force oracle reads the same one
    A = named("C")
    ring = QuotientRing(A, -1).ring
    assert QuotientRing(A, 1).ring is ring
    sa.degreewise_set_bruteforce(A, "center", 0)
    assert A.cached("star_skew_ring", None) is ring


def pair(a, b):
    """The element a-coords ++ b-coords, for the class of a + bX."""
    return AlgebraElement(a.coords + b.coords)


# ---------------------------------------------------------------------- reduce
def test_reduce_scalar_example(algebras):
    R = algebras["R"]
    u = R.unit
    p = Poly({0: u.scaled(3), 1: u.scaled(2), 2: u.scaled(5)})
    assert QuotientRing(R, -1).reduce(p) == AlgebraElement((-2, 2))


def test_reduce_already_reduced(algebras):
    H = algebras["H"]
    one, i, j, k = H.basis()
    assert QuotientRing(H, -1).reduce(Poly({0: i, 1: j})) == pair(i, j)


def test_reduce_odd_power(algebras):
    R = algebras["R"]
    assert QuotientRing(R, -1).reduce(Poly({3: R.unit})) == AlgebraElement((0, -1))


def test_reduce_rejects_mu_zero(algebras):
    with pytest.raises(ValueError):
        QuotientRing(algebras["R"], 0)
    with pytest.raises(ValueError):
        QuotientRing(algebras["H"], Fraction(0, 5))


# -------------------------------------------------------------------- quotient
def test_quot_mul_examples(algebras):
    R, H = algebras["R"], algebras["H"]
    x = AlgebraElement((0, 1))
    assert QuotientRing(R, -1).mul(x, x) == AlgebraElement((-1, 0))
    quotient = QuotientRing(H, -1)
    one, i, j, k = H.basis()
    z = H.zero()
    assert quotient.mul(pair(i, z), pair(z, one)) == pair(z, i)
    c = pair(i + j, k)
    assert quotient.mul(pair(one, z), c) == c


def test_quot_star(algebras):
    R, H = algebras["R"], algebras["H"]
    one, i, j, k = H.basis()
    star_r = QuotientRing(R, -1).star
    assert star_r(AlgebraElement((1, 0))) == AlgebraElement((1, 0))
    assert star_r(AlgebraElement((0, 1))) == AlgebraElement((0, -1))
    assert QuotientRing(H, -1).star(pair(i, j)) == pair(-i, -j)


def test_reduce_is_a_ring_map(algebras):
    rng = random.Random(8)
    for name in ("C", "H"):
        A = algebras[name]
        for mu in (-1, 1):
            quotient = QuotientRing(A, mu)
            double = cayley_double(A, mu)
            for _ in range(20):
                p = rand_poly(A, rng, 5)
                q = rand_poly(A, rng, 5)
                u, v = quotient.reduce(p), quotient.reduce(q)
                lhs = quotient.reduce(quotient.ring.mul(p, q))
                assert lhs == quotient.mul(u, v)
                assert lhs == double.mul(u, v)


def test_ideal_is_star_stable(algebras):
    rng = random.Random(9)
    for name in ("C", "H"):
        A = algebras[name]
        quotient = QuotientRing(A, -1)
        for _ in range(20):
            p = rand_poly(A, rng, 5)
            assert quotient.reduce(alpha(quotient.ring, p)) == quotient.star(
                quotient.reduce(p)
            )


def test_lift_rejects_a_wrong_length(algebras):
    quotient = QuotientRing(algebras["H"], -1)
    for dim in (2, 4, 16):
        with pytest.raises(ValueError):
            quotient.lift(basis_element(dim, 1))


def test_lift_embeds_the_prefix(algebras):
    H = algebras["H"]
    one, i, j, k = H.basis()
    quotient = QuotientRing(H, -1)
    assert quotient.lift(basis_element(8, 1)) == Poly({0: i})
    assert quotient.lift(basis_element(8, 6)) == Poly({1: j})
    assert quotient.reduce(quotient.lift(pair(i + k, j))) == pair(i + k, j)


def test_quotient_isomorphism_on_quaternions(algebras):
    H = algebras["H"]
    for mu in (-1, 1):
        quotient = QuotientRing(H, mu)
        double = cayley_double(H, mu)
        basis = double.basis()
        for u, v in product(basis, repeat=2):
            assert quotient.mul(u, v) == double.mul(u, v)
        for u in basis:
            assert quotient.star(u) == double.star(u)


def test_tower_identity_octonions_from_quaternion_quotient(algebras):
    built = QuotientRing(algebras["H"], -1).to_star_algebra()
    octonions = tower([-1, -1, -1])
    assert built.table == octonions.table
    assert built.involution.matrix == octonions.involution.matrix


TOWER_DEPTHS = (0, 1, 2, 4, 5, 6)  # with O, the -1 tower up to A of dim 64
OFF_TOWER_ALGEBRAS = (
    matrix_algebras() + triangular_algebras() + exchange_algebras() + sparse_exchange_algebras()
    + twisted_group_algebras() + [("rebased O", rebased_octonions())]
)
OFF_TOWER_MUS = ((-1, "-1"), (1, "1"), (Fraction(2, 3), "2/3"))


@pytest.mark.parametrize(
    "algebra, mu",
    [((Fraction(1, 2), 3), -1), ((Fraction(1, 2), 3), Fraction(2, 3)), ((-1, -1, -1), -1)]
    + [((-1,) * k, -1) for k in TOWER_DEPTHS]
    + [(A, mu) for _, A in OFF_TOWER_ALGEBRAS for mu, _ in OFF_TOWER_MUS],
    ids=["tower(1/2, 3) mu=-1", "tower(1/2, 3) mu=2/3", "O mu=-1"]
    + [f"-1 tower of dim {2 ** k} mu=-1" for k in TOWER_DEPTHS]
    + [f"{name} mu={text}" for name, _ in OFF_TOWER_ALGEBRAS for _, text in OFF_TOWER_MUS],
)
def test_quotient_table_is_the_double(algebra, mu):
    # the ring route shares no code with the sparse doubling formula; along
    # the -1 tower this is Theorem 1 up to a quotient of dim 128, and off the
    # towers it holds on the 14 star-algebras of conftest (the matrix,
    # triangular, exchange and twisted group algebras and the rebased
    # octonions, whose star has denominator 3, so their ring's step is 3)
    A = tower(algebra) if isinstance(algebra, tuple) else algebra
    built = QuotientRing(A, mu).to_star_algebra()
    double = cayley_double(A, mu)
    assert (built.table, built.involution) == (double.table, double.involution)
    if algebra == (-1, -1, -1):
        S = named("S")
        assert (built.table, built.involution) == (S.table, S.involution)


MEMO_ROUTE_ALGEBRAS = list(NAMED_TOWERS.items()) + [
    ("tower(1/2, 3)", (Fraction(1, 2), 3)),
    ("tower(1/2, 2, -1/3, 3)", (Fraction(1, 2), 2, Fraction(-1, 3), 3)),
]


@pytest.mark.parametrize(
    "mus", [mus for _, mus in MEMO_ROUTE_ALGEBRAS], ids=[name for name, _ in MEMO_ROUTE_ALGEBRAS]
)
def test_memo_table_matches_the_public_mul(mus):
    # the table folds the ring's basis products; the public mul and star
    # multiply the lifted classes in the ring and reduce them
    A = tower(mus)
    for mu in (-1, 1, Fraction(2, 3), -3):
        quotient = QuotientRing(A, mu)
        built = quotient.to_star_algebra()
        basis = built.basis()
        dense = [[quotient.mul(u, v).coords for v in basis] for u in basis]
        assert built.table == tuple(
            tuple(tuple((k, c) for k, c in enumerate(coords) if c) for coords in row)
            for row in dense
        )
        assert [built.star(u) for u in basis] == [quotient.star(u) for u in basis]


def test_second_quotient_table_reads_the_memo(monkeypatch):
    # every quotient of one algebra shares its ring, so the other mu's table
    # computes no ring product of its own
    calls = []
    kernel = FlipPolyRing._cleared_product

    def counting(ring, left, right, den):
        calls.append((left, right))
        return kernel(ring, left, right, den)

    monkeypatch.setattr(FlipPolyRing, "_cleared_product", counting)
    A = named("O")
    first = QuotientRing(A, -1).to_star_algebra()
    assert len(calls) == (2 * A.dim) ** 2
    second = QuotientRing(A, 1).to_star_algebra()
    assert len(calls) == (2 * A.dim) ** 2
    assert first.table != second.table
    assert second.table == cayley_double(A, 1).table


# ------------------------------------------------- double of the polynomial ring
def test_psi_substitution(algebras):
    H = algebras["H"]
    t = Poly({1: H.unit})
    assert psi(H, (t, Poly())) == Poly({2: H.unit})
    assert psi(H, (Poly(), Poly({0: H.unit}))) == Poly({1: H.unit})


def test_psi_round_trip(algebras):
    rng = random.Random(12)
    H = algebras["H"]
    for _ in range(20):
        pair = (rand_poly(H, rng, 3), rand_poly(H, rng, 3))
        assert psi_inv(H, psi(H, pair)) == pair
        p = rand_poly(H, rng, 6)
        assert psi(H, psi_inv(H, p)) == p


def test_cayley_t_unit_is_neutral(algebras):
    H = algebras["H"]
    rng = random.Random(6)
    one = (Poly({0: H.unit}), Poly())
    pair = (rand_poly(H, rng, 2), rand_poly(H, rng, 2))
    assert cayley_t_mul(H, one, pair) == pair
    assert cayley_t_mul(H, pair, one) == pair


def test_cayley_t_mul_reuses_one_ordinary_ring(monkeypatch):
    built = []

    def counting(algebra):
        built.append(algebra)
        return ordinary_ring(algebra)

    monkeypatch.setattr(quotient_iso, "ordinary_ring", counting)
    H = tower([-1, -1])
    pair = (Poly({1: H.basis()[1]}), Poly({0: H.basis()[2]}))
    first = cayley_t_mul(H, pair, pair)
    assert cayley_t_mul(H, pair, pair) == first
    assert built == [H]


def test_psi_is_multiplicative_on_monomial_generators(algebras):
    C = algebras["C"]
    ring = star_skew_ring(C)
    zero = Poly()
    gens = []
    for d in range(2):
        for e in C.basis():
            gens.append((Poly({d: e}), zero))
            gens.append((zero, Poly({d: e})))
    for u, v in product(gens, repeat=2):
        assert psi(C, cayley_t_mul(C, u, v)) == ring.mul(psi(C, u), psi(C, v))


def test_psi_is_star_compatible(algebras):
    rng = random.Random(14)
    for name in ("C", "H"):
        A = algebras[name]
        ring = star_skew_ring(A)
        for _ in range(15):
            pair = (rand_poly(A, rng, 3), rand_poly(A, rng, 3))
            assert psi(A, cayley_t_star(A, pair)) == alpha(ring, psi(A, pair))


def test_quotient_table_export_shape(algebras):
    C = algebras["C"]
    quotient_algebra = QuotientRing(C, -1).to_star_algebra()
    data = quotient_algebra.to_json_dict()
    assert data["dim"] == 4
    assert data["table"][1][2] == ["0", "0", "0", "1"]  # ij = k again
