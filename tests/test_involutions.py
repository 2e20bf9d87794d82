import random
from itertools import product

import pytest

from flipcayley import (
    AdditiveMap,
    AlgebraElement,
    FlipPolyRing,
    Poly,
    alpha,
    beta,
    degree_one_extension_violations,
    ordinary_ring,
    star_skew_ring,
)


def star_power(algebra, times, elem):
    for _ in range(times):
        elem = algebra.star(elem)
    return elem


def oracle(algebra, p, alternate_signs):
    """Literal coefficientwise formula: apply the base star i+1 times."""
    out = {}
    for degree, coeff in p.coeffs.items():
        value = star_power(algebra, degree + 1, coeff)
        if alternate_signs and degree % 2:
            value = -value
        out[degree] = value
    return Poly(out)


def rand_poly(algebra, rng, max_degree):
    return Poly(
        {
            d: AlgebraElement(rng.randint(-2, 2) for _ in range(algebra.dim))
            for d in range(max_degree + 1)
        }
    )


def test_restriction_to_coefficients_is_star(algebras):
    for name in ("C", "H", "O"):
        A = algebras[name]
        ring = star_skew_ring(A)
        for a in A.basis():
            assert alpha(ring, Poly({0: a})) == Poly({0: A.star(a)})
            assert beta(ring, Poly({0: a})) == Poly({0: A.star(a)})


def test_action_on_the_generator(algebras):
    C = algebras["C"]
    ring, x = star_skew_ring(C), Poly({1: C.unit})
    assert alpha(ring, x) == -x
    assert beta(ring, x) == x


def test_values_on_imaginary_times_x(algebras):
    C = algebras["C"]
    ring = star_skew_ring(C)
    i = C.basis()[1]
    ix = Poly({1: i})
    # frozen from the literal star-power formula: *^2 = id on the coefficient
    assert alpha(ring, ix) == Poly({1: -i})
    assert beta(ring, ix) == ix
    assert alpha(ring, ix) == oracle(C, ix, alternate_signs=True)
    assert beta(ring, ix) == oracle(C, ix, alternate_signs=False)


def test_agreement_with_literal_oracle(algebras):
    rng = random.Random(99)
    for name in ("C", "H"):
        A = algebras[name]
        ring = star_skew_ring(A)
        for _ in range(25):
            p = rand_poly(A, rng, 6)
            assert alpha(ring, p) == oracle(A, p, alternate_signs=True)
            assert beta(ring, p) == oracle(A, p, alternate_signs=False)


def test_involutive(algebras):
    rng = random.Random(4)
    for name in ("C", "H", "O"):
        A = algebras[name]
        ring = star_skew_ring(A)
        for _ in range(20):
            p = rand_poly(A, rng, 6)
            assert alpha(ring, alpha(ring, p)) == p
            assert beta(ring, beta(ring, p)) == p


def test_anti_multiplicative_on_basis_monomials(algebras):
    for name in ("C", "H"):
        A = algebras[name]
        ring = star_skew_ring(A)
        monomials = [Poly({d: e}) for d in range(4) for e in A.basis()]
        for p, q in product(monomials, repeat=2):
            pq = ring.mul(p, q)
            assert alpha(ring, pq) == ring.mul(alpha(ring, q), alpha(ring, p))
            assert beta(ring, pq) == ring.mul(beta(ring, q), beta(ring, p))


def test_anti_multiplicative_on_random_pairs(algebras):
    rng = random.Random(17)
    for name in ("C", "H", "O"):
        A = algebras[name]
        ring = star_skew_ring(A)
        for _ in range(200):
            p = rand_poly(A, rng, 4)
            q = rand_poly(A, rng, 4)
            pq = ring.mul(p, q)
            assert alpha(ring, pq) == ring.mul(alpha(ring, q), alpha(ring, p))
            assert beta(ring, pq) == ring.mul(beta(ring, q), beta(ring, p))


def test_alpha_and_beta_differ_on_x(algebras):
    H = algebras["H"]
    ring, x = star_skew_ring(H), Poly({1: H.unit})
    assert alpha(ring, x) != beta(ring, x)


def test_requires_star_skew_shape(algebras):
    H = algebras["H"]
    with pytest.raises(ValueError):
        alpha(ordinary_ring(H), Poly({0: H.unit}))
    shifted = [[0] * 4 for _ in range(4)]
    shifted[0][1] = 1
    with_delta = FlipPolyRing(
        H, AdditiveMap.from_star(H), AdditiveMap(shifted, "delta"), flipped=True
    )
    with pytest.raises(ValueError):
        beta(with_delta, Poly({0: H.unit}))


def test_candidate_validation(algebras):
    H = algebras["H"]
    ring = star_skew_ring(H)
    # the images of X under alpha and beta satisfy the necessary conditions
    x = Poly({1: H.unit})
    assert degree_one_extension_violations(ring, -x) == ()
    assert degree_one_extension_violations(ring, x) == ()
    # shifting by a nonzero constant breaks them
    bad = Poly({0: H.unit, 1: H.unit})
    violations = degree_one_extension_violations(ring, bad)
    assert violations
    # a degree-2 image is rejected outright
    assert degree_one_extension_violations(ring, Poly({2: H.unit})) == (
        "image of X must have degree at most 1",
    )
    # b with b*b != 1 is flagged
    squashed = Poly({1: H.unit.scaled(2)})
    assert any("b*b = 1" in v for v in degree_one_extension_violations(ring, squashed))
