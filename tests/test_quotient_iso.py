import random
from fractions import Fraction
from itertools import product

import pytest

from flipcayley import (
    AlgebraElement,
    named,
    ordinary_ring,
    Poly,
    PolyPair,
    QuotElement,
    QuotientRing,
    alpha,
    cayley_double,
    cayley_t_mul,
    cayley_t_star,
    psi,
    psi_inv,
    star_skew_ring,
    tower,
)
from flipcayley import quotient_iso
from flipcayley import structure_analysis as sa


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


# ---------------------------------------------------------------------- reduce
def test_reduce_scalar_example(algebras):
    R = algebras["R"]
    u = R.unit
    p = Poly({0: u.scaled(3), 1: u.scaled(2), 2: u.scaled(5)})
    result = QuotientRing(R, -1).reduce(p)
    assert result == QuotElement(u.scaled(-2), u.scaled(2))


def test_reduce_already_reduced(algebras):
    H = algebras["H"]
    one, i, j, k = H.basis()
    assert QuotientRing(H, -1).reduce(Poly({0: i, 1: j})) == QuotElement(i, j)


def test_reduce_odd_power(algebras):
    R = algebras["R"]
    result = QuotientRing(R, -1).reduce(Poly({3: R.unit}))
    assert result == QuotElement(R.zero(), -R.unit)


def test_reduce_rejects_mu_zero(algebras):
    with pytest.raises(ValueError):
        QuotientRing(algebras["R"], 0)
    with pytest.raises(ValueError):
        QuotientRing(algebras["H"], Fraction(0, 5))


# -------------------------------------------------------------------- quotient
def test_quot_mul_examples(algebras):
    R, H = algebras["R"], algebras["H"]
    u = QuotElement(R.zero(), R.unit)
    assert QuotientRing(R, -1).mul(u, u) == QuotElement(-R.unit, R.zero())
    quotient = QuotientRing(H, -1)
    one, i, j, k = H.basis()
    z = H.zero()
    assert quotient.mul(QuotElement(i, z), QuotElement(z, one)) == QuotElement(z, i)
    c = QuotElement(i + j, k)
    assert quotient.mul(QuotElement(one, z), c) == c


def test_quot_star(algebras):
    R, H = algebras["R"], algebras["H"]
    one, i, j, k = H.basis()
    star_r = QuotientRing(R, -1).star
    assert star_r(QuotElement(R.unit, R.zero())) == QuotElement(R.unit, R.zero())
    assert star_r(QuotElement(R.zero(), R.unit)) == QuotElement(R.zero(), -R.unit)
    assert QuotientRing(H, -1).star(QuotElement(i, j)) == QuotElement(-i, -j)


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
                assert quotient.phi(lhs) == double.mul(quotient.phi(u), quotient.phi(v))


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


def test_phi_round_trip(algebras):
    H = algebras["H"]
    quotient = QuotientRing(H, -1)
    for u in quotient.basis():
        assert quotient.phi_inv(quotient.phi(u)) == u
    double = cayley_double(H, -1)
    for w in double.basis():
        assert quotient.phi(quotient.phi_inv(w)) == w
    with pytest.raises(ValueError):
        quotient.phi_inv(AlgebraElement((1, 0)))


def test_phi_embeds_the_prefix(algebras):
    H = algebras["H"]
    quotient = QuotientRing(H, -1)
    i = H.basis()[1]
    assert quotient.phi(QuotElement(i, H.zero())).coords == (0, 1, 0, 0, 0, 0, 0, 0)


def test_quotient_isomorphism_on_quaternions(algebras):
    H = algebras["H"]
    for mu in (-1, 1):
        quotient = QuotientRing(H, mu)
        double = cayley_double(H, mu)
        basis = quotient.basis()
        for u, v in product(basis, repeat=2):
            lhs = quotient.phi(quotient.mul(u, v))
            assert lhs == double.mul(quotient.phi(u), quotient.phi(v))
        for u in basis:
            assert quotient.phi(quotient.star(u)) == double.star(quotient.phi(u))


def test_tower_identity_octonions_from_quaternion_quotient(algebras):
    built = QuotientRing(algebras["H"], -1).to_star_algebra()
    octonions = tower([-1, -1, -1])
    assert built.table == octonions.table
    assert built.involution.matrix == octonions.involution.matrix


# ------------------------------------------------- double of the polynomial ring
def test_psi_substitution(algebras):
    H = algebras["H"]
    t = Poly({1: H.unit})
    assert psi(H, PolyPair(t, Poly())) == Poly({2: H.unit})
    assert psi(H, PolyPair(Poly(), Poly({0: H.unit}))) == Poly({1: H.unit})


def test_psi_round_trip(algebras):
    rng = random.Random(12)
    H = algebras["H"]
    for _ in range(20):
        pair = PolyPair(rand_poly(H, rng, 3), rand_poly(H, rng, 3))
        assert psi_inv(H, psi(H, pair)) == pair
        p = rand_poly(H, rng, 6)
        assert psi(H, psi_inv(H, p)) == p


def test_cayley_t_unit_is_neutral(algebras):
    H = algebras["H"]
    rng = random.Random(6)
    one = PolyPair(Poly({0: H.unit}), Poly())
    pair = PolyPair(rand_poly(H, rng, 2), rand_poly(H, rng, 2))
    assert cayley_t_mul(H, one, pair) == pair
    assert cayley_t_mul(H, pair, one) == pair


def test_cayley_t_mul_reuses_one_ordinary_ring(monkeypatch):
    built = []

    def counting(algebra):
        built.append(algebra)
        return ordinary_ring(algebra)

    monkeypatch.setattr(quotient_iso, "ordinary_ring", counting)
    H = tower([-1, -1])
    pair = PolyPair(Poly({1: H.basis()[1]}), Poly({0: H.basis()[2]}))
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
            gens.append(PolyPair(Poly({d: e}), zero))
            gens.append(PolyPair(zero, Poly({d: e})))
    for u, v in product(gens, repeat=2):
        assert psi(C, cayley_t_mul(C, u, v)) == ring.mul(psi(C, u), psi(C, v))


def test_psi_is_star_compatible(algebras):
    rng = random.Random(14)
    for name in ("C", "H"):
        A = algebras[name]
        ring = star_skew_ring(A)
        for _ in range(15):
            pair = PolyPair(rand_poly(A, rng, 3), rand_poly(A, rng, 3))
            assert psi(A, cayley_t_star(A, pair)) == alpha(ring, psi(A, pair))


def test_quotient_table_export_shape(algebras):
    C = algebras["C"]
    quotient_algebra = QuotientRing(C, -1).to_star_algebra()
    data = quotient_algebra.to_json_dict()
    assert data["dim"] == 4
    assert data["table"][1][2] == ["0", "0", "0", "1"]  # ij = k again
