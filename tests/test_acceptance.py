"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a ``criterion N (...): PASS`` line (run pytest with -s
or read the captured output) and enforces its wall-clock budget.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

from flipcayley import (
    AdditiveMap,
    AlgebraElement,
    FlipPolyRing,
    Poly,
    QuotientRing,
    alpha,
    beta,
    cayley_double,
    cayley_t_mul,
    cayley_t_star,
    check_axioms,
    ordinary_ring,
    psi,
    psi_inv,
    star_skew_ring,
    tower,
)
from flipcayley import structure_analysis as sa
from conftest import pi_value


@contextmanager
def criterion(number, title, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit_seconds:
        print(f"criterion {number} ({title}): FAIL (took {elapsed:.2f}s, limit {limit_seconds}s)")
        raise AssertionError(
            f"criterion {number} exceeded its time budget: {elapsed:.2f}s >= {limit_seconds}s"
        )
    print(f"criterion {number} ({title}): PASS ({elapsed:.2f}s, limit {limit_seconds}s)")


def _shift_delta(dim):
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim - 1):
        rows[i][i + 1] = 1
    return AdditiveMap(rows, "delta")


def test_criterion_1_pi_oracle_equivalence(algebras):
    with criterion(1, "pi recurrence vs composition-sum oracle", 5):
        H = algebras["H"]
        sigma = AdditiveMap.from_star(H)
        for delta in (AdditiveMap.zero(4), _shift_delta(4)):
            ring = FlipPolyRing(H, sigma, delta, flipped=True)
            for m in range(9):
                for i in range(m + 1):
                    for s in H.basis():
                        assert pi_value(ring, i, m, s) == ring.pi_oracle(i, m, s)


def test_criterion_2_quotient_is_the_double(algebras):
    with criterion(2, "quotient mod X^2-mu is the Cayley double", 10):
        for name in ("R", "C", "C'", "H", "H'"):
            A = algebras[name]
            for mu in (-1, 1):
                quotient = QuotientRing(A, mu)
                double = cayley_double(A, mu)
                basis = double.basis()
                # multiplicative on all basis pairs, via the reduction route
                for u, v in product(basis, repeat=2):
                    assert quotient.mul(u, v) == double.mul(u, v)
                # star-compatible on all basis elements
                for u in basis:
                    assert quotient.star(u) == double.star(u)


def test_criterion_3_ring_is_double_of_poly_algebra(algebras):
    with criterion(3, "flipped ring is the double of the t-polynomials", 30):
        for name in ("C", "H"):
            A = algebras[name]
            ring = star_skew_ring(A)
            zero = Poly()
            gens = []
            for d in range(3):  # t-degrees <= 2
                for e in A.basis():
                    gens.append((Poly({d: e}), zero))
                    gens.append((zero, Poly({d: e})))
            for u, v in product(gens, repeat=2):
                lhs = psi(A, cayley_t_mul(A, u, v))
                assert lhs == ring.mul(psi(A, u), psi(A, v))
            for u in gens:
                assert psi(A, cayley_t_star(A, u)) == alpha(ring, psi(A, u))
                assert psi_inv(A, psi(A, u)) == u


def test_criterion_4_generator_nucleus_cross_validation(algebras):
    with criterion(4, "generator nucleus criteria vs brute force", 60):
        for name in ("C", "C'", "H", "H'", "O"):
            ring = star_skew_ring(algebras[name])
            for side in ("left", "middle", "right"):
                predicted = sa.x_in_nucleus(ring, side)
                brute = sa.x_in_nucleus_bruteforce(ring, side, 4)
                assert predicted == brute, (name, side)


def test_criterion_5_structural_sets_cross_validation(algebras):
    with criterion(5, "degreewise structural sets vs brute force", 120):
        for name in ("R", "C", "H", "O"):
            A = algebras[name]
            for kind in sa.SET_KINDS:
                predicted = sa.degreewise_set(A, kind, 4)
                brute = sa.degreewise_set_bruteforce(A, kind, 4)
                assert predicted == brute, (name, kind)


def test_criterion_6_tower_patterns():
    with criterion(6, "tower commuter/center/nucleus patterns", 120):
        bound = 6
        for n in range(5):
            A = tower([-1] * n)
            commuter = sa.degreewise_set(A, "commuter", bound)
            center = sa.degreewise_set(A, "center", bound)
            z_star = sa.z_star_of_b(A, bound)
            nucleus = sa.degreewise_set(A, "nucleus", bound)
            assert commuter.per_degree == center.per_degree, n
            for i in range(bound + 1):
                want_center = 1 if (n == 0 or i % 2 == 0) else 0
                want_z_star = 1 if i % 2 == 0 else 0
                want_nucleus = A.dim if n <= 1 else (1 if i % 2 == 0 else 0)
                assert len(center.per_degree[i]) == want_center, (n, i)
                assert len(z_star.per_degree[i]) == want_z_star, (n, i)
                assert len(nucleus.per_degree[i]) == want_nucleus, (n, i)


def test_criterion_7_properties_ladder(algebras):
    with criterion(7, "tower properties ladder with witnesses", 60):
        expected = {
            "R": (True, True, True, True),
            "C": (True, True, True, True),
            "H": (False, True, True, True),
            "O": (False, False, True, True),
            "S": (False, False, False, True),
        }
        witnesses = {}
        for name, (comm, assoc, alt, flex) in expected.items():
            A = algebras[name]
            assert A.is_commutative() is comm, name
            assert A.is_associative() is assoc, name
            assert A.is_alternative() is alt, name
            assert A.is_flexible() is flex, name
            if not comm:
                x, y, value = A.commutativity_witness()
                assert A.mul(x, y) - A.mul(y, x) == value and not value.is_zero()
                witnesses[name, "commutative"] = (x, y)
            if not assoc:
                x, y, z, value = A.associativity_witness()
                assert A.associator(x, y, z) == value and not value.is_zero()
                witnesses[name, "associative"] = (x, y, z)
            if not alt:
                side, x, y, z, value = A.alternativity_witness()
                assert not value.is_zero()
                witnesses[name, "alternative"] = (x, y, z)
        # every failing cell carries a stored witness
        assert set(witnesses) == {
            ("H", "commutative"),
            ("O", "commutative"),
            ("S", "commutative"),
            ("O", "associative"),
            ("S", "associative"),
            ("S", "alternative"),
        }


def test_criterion_8_involutions(algebras):
    with criterion(8, "alpha/beta are anti-multiplicative involutions", 30):
        rng = random.Random(20240809)
        for name in ("C", "H", "O"):
            A = algebras[name]
            ring = star_skew_ring(A)
            monomials = [Poly({d: e}) for d in range(4) for e in A.basis()]
            for p, q in product(monomials, repeat=2):
                pq = ring.mul(p, q)
                assert alpha(ring, pq) == ring.mul(alpha(ring, q), alpha(ring, p))
                assert beta(ring, pq) == ring.mul(beta(ring, q), beta(ring, p))
            for p in monomials:
                assert alpha(ring, alpha(ring, p)) == p
                assert beta(ring, beta(ring, p)) == p
            for _ in range(25):
                p = Poly(
                    {
                        d: AlgebraElement(
                            rng.randint(-2, 2) for _ in range(A.dim)
                        )
                        for d in range(6)
                    }
                )
                assert alpha(ring, alpha(ring, p)) == p
                assert beta(ring, beta(ring, p)) == p
            for a in A.basis():
                assert alpha(ring, Poly({0: a})) == Poly({0: A.star(a)})
                assert beta(ring, Poly({0: a})) == Poly({0: A.star(a)})


def test_criterion_9_axiom_suites(algebras):
    with criterion(9, "axiom families and the flip coincidence", 30):
        H, C = algebras["H"], algebras["C"]
        ring_h = star_skew_ring(H)
        ring_c = star_skew_ring(C)
        assert check_axioms(ring_h, "F", 4).passed
        failing = check_axioms(ring_h, "N", 4)
        assert not failing.passed
        assert failing.first[0] == "N3"

        def agree(ring, plain, algebra):
            basis = algebra.basis()
            return all(
                ring.monomial_product(m, r, n, s) == plain.monomial_product(m, r, n, s)
                for m, n, r, s in product(range(6), range(6), basis, basis)
            )

        # flipped and unflipped coincide exactly over the commutative base
        plain_c = FlipPolyRing(C, ring_c.sigma, ring_c.delta, flipped=False)
        assert agree(ring_c, plain_c, C)
        plain_h = FlipPolyRing(H, ring_h.sigma, ring_h.delta, flipped=False)
        assert not agree(ring_h, plain_h, H)


def test_criterion_10_grading(algebras):
    with criterion(10, "even layer multiplies like the ordinary ring in t = X^2", 10):
        H = algebras["H"]
        ring, square = star_skew_ring(H), ordinary_ring(H)
        for m in range(4):
            for n in range(4):
                for a in H.basis():
                    for b in H.basis():
                        prod = ring.mul(Poly({2 * m: a}), Poly({2 * n: b}))
                        even, odd = psi_inv(H, prod)
                        assert odd.is_zero()
                        assert even == square.mul(Poly({m: a}), Poly({n: b}))
