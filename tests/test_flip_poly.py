import hashlib
import itertools
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipcayley import (
    AdditiveMap,
    AlgebraElement,
    FlipPolyRing,
    Poly,
    check_axioms,
    linalg,
    named,
    ordinary_ring,
    parse_poly,
    poly_to_text,
    psi,
    psi_inv,
    star_skew_ring,
    tower,
)
from flipcayley.algebra_core import _TERMS, IDENTITIES, identity_at
from flipcayley.flip_poly import (
    AxiomReport,
    _axiom_checks,
    poly_to_json,
)
from conftest import (
    _map_of,
    exact_scalars,
    exchange_algebras,
    mat_add,
    matrix_algebras,
    memoized_mul,
    pi_value,
    random_sigma_delta_rings,
    sparse_exchange_algebras,
    triangular_algebras,
    twisted_group_algebras,
)


def shift_map(dim):
    """Strictly upper-triangular shift: e_(i+1) -> e_i, unit -> 0."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim - 1):
        rows[i][i + 1] = 1
    return AdditiveMap(rows, "delta")


def rand_poly(ring, rng, max_degree, lo=-2, hi=2):
    dim = ring.coeff_algebra.dim
    coeffs = {}
    for d in range(max_degree + 1):
        coeffs[d] = AlgebraElement(rng.randint(lo, hi) for _ in range(dim))
    return Poly(coeffs)


# ------------------------------------------------------------------------- tau
def tau(ring, n, r, s):
    """tau_n(r, s): the coefficient product in order for even n, reversed for odd n."""
    algebra = ring.coeff_algebra
    return algebra.mul(s, r) if n % 2 else algebra.mul(r, s)


def test_tau(algebras):
    H = algebras["H"]
    ring = star_skew_ring(H)
    one, i, j, k = H.basis()
    assert tau(ring, 0, i, j) == k
    assert tau(ring, 1, i, j) == -k
    assert tau(ring, 7, one, i + j) == i + j
    assert tau(ring, 4, j, k) == i


# -------------------------------------------------------------------------- pi
def test_pi_explicit_composition_sum(algebras):
    H = algebras["H"]
    sigma = AdditiveMap.from_star(H)
    delta = shift_map(4)
    ring = FlipPolyRing(H, sigma, delta, flipped=True)
    for s in H.basis():
        expected = (
            sigma(sigma(delta(s))) + sigma(delta(sigma(s))) + delta(sigma(sigma(s)))
        )
        assert pi_value(ring, 2, 3, s) == expected


def test_pi_with_zero_delta_is_sigma_power(algebras):
    H = algebras["H"]
    ring = star_skew_ring(H)
    for m in range(5):
        for i in range(m + 2):
            for s in H.basis():
                value = pi_value(ring, i, m, s)
                if i == m:
                    expected = s
                    for _ in range(m):
                        expected = H.star(expected)
                    assert value == expected
                else:
                    assert value.is_zero()


def test_pi_of_unit_is_kronecker(algebras):
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.from_star(H), shift_map(4), flipped=True)
    for m in range(5):
        for i in range(m + 1):
            value = pi_value(ring, i, m, H.unit)
            assert value == (H.unit if i == m else H.zero())


def test_pi_out_of_range_is_zero(algebras):
    ring = star_skew_ring(algebras["H"])
    s = algebras["H"].basis()[2]
    assert pi_value(ring, 3, 2, s).is_zero()
    assert pi_value(ring, -1, 2, s).is_zero()
    assert ring.pi_oracle(3, 2, s).is_zero()


def test_pi_oracle_identity_cases(algebras):
    ring = star_skew_ring(algebras["H"])
    s = algebras["H"].basis()[1]
    assert ring.pi_oracle(0, 0, s) == s


def test_pi_matches_oracle(algebras):
    H = algebras["H"]
    for delta in (AdditiveMap.zero(4), shift_map(4)):
        ring = FlipPolyRing(H, AdditiveMap.from_star(H), delta, flipped=True)
        for m in range(7):
            for i in range(m + 1):
                for s in H.basis():
                    assert pi_value(ring, i, m, s) == ring.pi_oracle(i, m, s)


def test_pi_oracle_bound():
    ring = star_skew_ring(named("C"))
    with pytest.raises(ValueError):
        ring.pi_oracle(1, 13, named("C").unit)


PI_RECURSION_DEGREE = 40


def _right_recursion_pi(ring, top):
    """Levels ``{i: LinearMap}`` of pi_i^m for m <= top, zero maps dropped, by
    the right recursion pi_i^(m+1) = pi_(i-1)^m o sigma + pi_i^m o delta, the
    sum taken on the dense matrices."""
    sigma, delta = ring.sigma, ring.delta
    levels = [{0: linalg.LinearMap.identity(sigma.dim)}]
    for _ in range(top):
        nxt = {}
        for i, pmap in levels[-1].items():
            for k, image in ((i + 1, pmap.compose(sigma)), (i, pmap.compose(delta))):
                if k in nxt:
                    image = linalg.LinearMap.from_rows(mat_add(nxt[k].matrix, image.matrix))
                nxt[k] = image
        levels.append({k: v for k, v in nxt.items() if not v.is_zero()})
    return levels


def test_pi_matrix_matches_the_right_recursion(algebras):
    """``pi_matrix`` against LinearMaps composed by the right recursion up to
    degree 40, past ``pi_oracle``'s cap: on every ring of
    ``random_sigma_delta_rings`` with a fractional sigma or a nonzero delta
    (derivations and fractional maps) and on H with the inner derivation
    x -> x e1 - e1 x.  The first call jumps a fresh ring to the top degree."""
    H = algebras["H"]
    e1 = H.basis()[1]
    inner = _map_of(H, lambda x: H.mul(x, e1) - H.mul(e1, x), "delta")
    rings = [ring for _, s, d, ring in random_sigma_delta_rings(algebras) if s == 3 or d]
    rings.append(FlipPolyRing(H, AdditiveMap.from_star(H), inner, flipped=True))
    top = PI_RECURSION_DEGREE
    for ring in rings:
        levels = _right_recursion_pi(ring, top)
        assert ring.pi_matrix(top // 2, top) == levels[top].get(top // 2)
        for m, level in enumerate(levels):
            for i in range(-1, m + 2):
                assert ring.pi_matrix(i, m) == level.get(i), (ring.sigma.matrix, m, i)


# -------------------------------------------------------------------- products
def test_star_skew_monomial_products(algebras):
    H = algebras["H"]
    ring = star_skew_ring(H)
    one, i, j, k = H.basis()
    x = Poly({1: one})
    assert ring.mul(Poly({1: j}), Poly({1: k})) == Poly({2: i})
    assert ring.mul(x, Poly({0: i})) == Poly({1: H.star(i)})
    for m in range(7):
        for r in H.basis():
            assert ring.mul(Poly({m: r}), x) == Poly({m + 1: r})
    # the degrees come out sorted although the kernel meets them out of order
    assert list(ring.mul(Poly({0: i, 3: j}), Poly({0: k, 1: one})).coeffs) == [0, 1, 3, 4]


def _recurrence_twin(ring):
    """A fresh ring with the same data whose pi columns grow level by level
    by the recurrence alone: its period is set to "none proven"."""
    twin = FlipPolyRing(ring.coeff_algebra, ring.sigma, ring.delta, ring.flipped)
    twin.period = None
    return twin


def _order_three_sigma(H):
    """Conjugation by u = (1 + e1 + e2 + e3)/2 on H, of order 3 as u^3 = -1."""
    u = H.element([Fraction(1, 2)] * 4)
    return _map_of(H, lambda x: H.mul(H.mul(u, x), H.star(u)), "sigma")


def _is_periodic(ring, p, top):
    """Whether each (e_i X^m)(e_j X^n) with m, n <= top is the product at
    degrees (m mod p, n mod p) with every output degree raised by
    (m - m mod p) + (n - n mod p), all read from ``ring._basis``."""
    degrees, indices = range(top + 1), range(ring.coeff_algebra.dim)
    for m, n, i, j in itertools.product(degrees, degrees, indices, indices):
        shift = m - m % p + n - n % p
        base = ring._basis[m % p, i][n % p, j]
        if ring._basis[m, i][n, j] != tuple(((d + shift, k), c) for (d, k), c in base):
            return False
    return True


def _star_skew_fixtures(algebras):
    """23 ``(name, algebra)`` pairs: the named algebras to O', the fixture
    algebras off the towers and three mixed-mu towers."""
    cases = [(name, algebras[name]) for name in ("R", "C", "C'", "H", "H'", "O", "O'")]
    cases += (
        matrix_algebras() + exchange_algebras() + sparse_exchange_algebras()
        + triangular_algebras() + twisted_group_algebras()
    )
    for mus in ([Fraction(1, 2), 3], [Fraction(1, 2), 3, -1], [2, -1, 5]):
        cases.append((f"tower{tuple(mus)}", tower(mus)))
    assert len(cases) == 23
    return cases


def test_star_skew_ring_is_parity_periodic(algebras):
    """sigma the star (of order 1 or 2) and delta 0 make every basis-monomial
    product depend on its degrees only through their parities: the lemma
    behind the ``props`` suite's verdicts holding at every degree, and the
    period that ``FlipPolyRing`` proves from the ring's data.  The products
    are made by the recurrence, so the lemma is checked, not assumed."""
    for name, A in _star_skew_fixtures(algebras):
        ring = star_skew_ring(A)
        assert ring.period == 2, name
        assert _is_periodic(_recurrence_twin(ring), 2, 4), name
    # a nonzero delta breaks the period, and the ring proves none
    H = algebras["H"]
    e1 = H.basis()[1]
    delta = _map_of(H, lambda x: H.mul(x, e1) - H.mul(e1, x), "delta")
    with_delta = FlipPolyRing(H, AdditiveMap.from_star(H), delta, True)
    assert with_delta.period is None
    assert not _is_periodic(with_delta, 2, 4)
    # a sigma of order 3 breaks the parity period; the flip needs an even
    # period, so the ring is 6-periodic, and 3-periodic without the flip
    flipped, unflipped = (
        FlipPolyRing(H, _order_three_sigma(H), AdditiveMap.zero(4), f) for f in (True, False)
    )
    assert (flipped.period, unflipped.period) == (6, 3)
    twin = _recurrence_twin(flipped)
    assert not _is_periodic(twin, 2, 4) and not _is_periodic(twin, 3, 4)
    assert _is_periodic(twin, 6, 7)
    assert _is_periodic(_recurrence_twin(unflipped), 3, 5)
    # over a commutative algebra with sigma the identity, no degree matters
    C = algebras["C"]
    assert ordinary_ring(C).period == 1
    assert _is_periodic(_recurrence_twin(ordinary_ring(C)), 1, 3)


def _periodic_rings(algebras):
    """``(ring, proven period)`` on S, O, a mixed-mu tower, a flipped ring
    over H with a fractional sigma of order 2, whose step is 2, the rings of
    a sigma of order 3 (periods 6 and 3), and over S a permutation of
    e1..e15 with cycles of length 3, 5 and 7: its order 105 is past 12, so
    the ring proves no period and keeps the recurrence."""
    H = algebras["H"]
    sigma = AdditiveMap(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, Fraction(1, 2), -1, 0], [0, 0, 0, -1]], "sigma"
    )  # e1 -> e1 + e2/2, e2 -> -e2, e3 -> -e3
    fractional = FlipPolyRing(H, sigma, AdditiveMap.zero(4), flipped=True)
    assert fractional._step[0] == 2
    rings = [(star_skew_ring(algebras[name]), 2) for name in ("S", "O")]
    rings += [(star_skew_ring(tower([Fraction(1, 2), 3, -1])), 2), (fractional, 2)]
    rings += [
        (FlipPolyRing(H, _order_three_sigma(H), AdditiveMap.zero(4), f), p)
        for f, p in ((True, 6), (False, 3))
    ]
    image = list(range(16))
    for cycle in (1, 2, 3), (4, 5, 6, 7, 8), tuple(range(9, 16)):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    order_105 = AdditiveMap([[int(image[j] == i) for j in range(16)] for i in range(16)], "sigma")
    rings.append((FlipPolyRing(algebras["S"], order_105, AdditiveMap.zero(16), True), None))
    return rings


def test_periodic_pi_columns_match_the_recurrence(algebras):
    """On a ring with a proven period p, ``pi_matrix(i, m)`` reads level
    m mod p of the columns, and for every m <= 400 it equals the map that
    the recurrence twin assembles from level m, on the rings of
    ``_periodic_rings``.  Delta is 0 on each, so pi_i^m vanishes off i = m;
    i runs a period and more to each side of m.  A nonzero delta proves no
    period (``test_pi_matrix_matches_the_right_recursion``)."""
    rings = _periodic_rings(algebras)
    for ring, period in rings:
        assert ring.period == period
        twin, reach = _recurrence_twin(ring), 2 * (period or 1)
        for m in range(401):
            for i in range(m - reach, m + 2):
                assert ring.pi_matrix(i, m) == twin.pi_matrix(i, m), (period, m, i)
        assert all(len(column) <= (period or 401) for column in ring._columns), period
    H = algebras["H"]
    fractional = next(ring for ring, _ in rings if ring._step[0] == 2)
    e1 = H.basis()[1]
    delta = _map_of(H, lambda x: H.mul(x, e1) - H.mul(e1, x), "delta")
    assert FlipPolyRing(H, fractional.sigma, delta, flipped=True).period is None


def _counting_kernel(monkeypatch):
    """A list that gets ``(ring, (m, i), (n, j))`` for each ``_cleared_product``
    call on single basis terms from now on."""
    calls, kernel = [], FlipPolyRing._cleared_product

    def counting(ring, left, right, den):
        ((m, ((i, _),)),), ((n, ((j, _),)),) = left, right
        calls.append((ring, (m, i), (n, j)))
        return kernel(ring, left, right, den)

    monkeypatch.setattr(FlipPolyRing, "_cleared_product", counting)
    return calls


def test_basis_memo_raises_one_period_to_every_degree(algebras, monkeypatch):
    """On a ring with a ``period`` p, every entry (e_i X^m)(e_j X^n) of
    ``_basis`` with m, n <= 2p + 1 equals the entry that the kernel makes for
    that very slot on the recurrence twin, and the ring runs the kernel for
    the p^2 dim^2 slots of one period only: on periods 1 (``ordinary_ring(C)``),
    2 (the 23 star-skew fixtures), and 3 and 6 (a sigma of order 3, unflipped
    and flipped)."""
    H = algebras["H"]
    rings = [(name, star_skew_ring(A)) for name, A in _star_skew_fixtures(algebras)]
    rings.append(("C ordinary", ordinary_ring(algebras["C"])))
    for flipped in (False, True):
        ring = FlipPolyRing(H, _order_three_sigma(H), AdditiveMap.zero(4), flipped)
        rings.append((f"H order-3 sigma, flipped={flipped}", ring))
    assert sorted({ring.period for _, ring in rings}) == [1, 2, 3, 6]
    calls = _counting_kernel(monkeypatch)
    for name, ring in rings:
        p, indices = ring.period, range(ring.coeff_algebra.dim)
        twin, degrees = _recurrence_twin(ring), range(2 * p + 2)
        for m, n, i, j in itertools.product(degrees, degrees, indices, indices):
            assert ring._basis[m, i][n, j] == twin._basis[m, i][n, j], (name, m, n, i, j)
        period = range(p)
        assert sorted(slots for r, *slots in calls if r is ring) == sorted(
            [(m, i), (n, j)] for m, n, i, j in itertools.product(period, period, indices, indices)
        ), name
        assert sum(r is twin for r, *_ in calls) == len(degrees) ** 2 * len(indices) ** 2, name


def test_axiom_checks_run_the_kernel_on_one_period(algebras, monkeypatch):
    """``check_axioms`` at bound 6 reads every basis product from ``_basis``,
    which runs the kernel on one period only: 64 calls for family F on the
    star-skew ring over H (period 2, dim 4) and 256 for family O over O
    (period 2, dim 8), where filling each slot by the kernel took 916 and
    8,512.  A ring with a nonzero delta proves no period and still fills
    every slot it reads through the kernel, once each."""
    calls = _counting_kernel(monkeypatch)
    report = check_axioms(star_skew_ring(algebras["H"]), "F", 6)
    assert (len(calls), report.checked, report.passed) == (64, 928, True)
    calls.clear()
    report = check_axioms(star_skew_ring(named("O")), "O", 6)
    assert (len(calls), report.checked, report.failed) == (256, 175680, 76272)
    H = algebras["H"]
    e1 = H.basis()[1]
    delta = _map_of(H, lambda x: H.mul(x, e1) - H.mul(e1, x), "delta")
    with_delta = FlipPolyRing(H, AdditiveMap.from_star(H), delta, True)
    assert with_delta.period is None
    calls.clear()
    for family in ("O", "N", "F"):
        check_axioms(with_delta, family, 3)
    filled = [[left, right] for left, row in with_delta._basis.items() for right in row]
    assert sorted(slots for _, *slots in calls) == sorted(filled)
    # O3's (aX^i bX^j) cX^k has a left factor of degree up to 6, far past any period
    assert max(m for (m, _), _ in filled) == 6


def test_ring_mul_of_degree_one_monomials(algebras):
    H = algebras["H"]
    ring = star_skew_ring(H)
    one, i, j, k = H.basis()
    assert ring.mul(Poly({1: j}), Poly({1: k})) == Poly({2: tau(ring, 1, j, H.star(k))})


def test_unit_is_two_sided(algebras):
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.from_star(H), shift_map(4), flipped=True)
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(ring, rng, 4)
        assert ring.mul(Poly({0: H.unit}), p) == p
        assert ring.mul(p, Poly({0: H.unit})) == p


def test_zero_poly_multiplication(algebras):
    ring = star_skew_ring(algebras["H"])
    p = Poly({3: algebras["H"].basis()[1]})
    assert ring.mul(p, Poly()).is_zero()
    assert ring.mul(Poly(), p).is_zero()
    assert ring.mul(Poly(), Poly()).coeffs == {}


def test_single_term_product_that_cancels_is_zero():
    # the sedenion zero divisors (e3 + e10)(e6 - e15) = 0; sigma^2 is the
    # identity, so (a X^2) b = (ab) X^2 cancels too, and no zero is kept
    S = named("S")
    ring, e = star_skew_ring(S), S.basis()
    for m in (0, 2):
        assert ring.mul(Poly({m: e[3] + e[10]}), Poly({0: e[6] - e[15]})).coeffs == {}


def test_biadditivity(algebras):
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.from_star(H), shift_map(4), flipped=True)
    rng = random.Random(13)
    for _ in range(15):
        p = rand_poly(ring, rng, 5)
        p2 = rand_poly(ring, rng, 5)
        q = rand_poly(ring, rng, 5)
        assert ring.mul(p + p2, q) == ring.mul(p, q) + ring.mul(p2, q)
        assert ring.mul(q, p + p2) == ring.mul(q, p) + ring.mul(q, p2)


def test_skew_specialization(algebras):
    # delta = 0: (r X^m)(s X^n) lands in degree m+n with coefficient tau_n(r, sigma^m(s))
    H = algebras["H"]
    ring = star_skew_ring(H)
    for m in range(4):
        for n in range(4):
            for r in H.basis():
                for s in H.basis():
                    image = s
                    for _ in range(m):
                        image = H.star(image)
                    expected = Poly({m + n: tau(ring, n, r, image)})
                    assert ring.mul(Poly({m: r}), Poly({n: s})) == expected


def test_differential_specialization(algebras):
    # sigma = id: binomial expansion in powers of delta
    H = algebras["H"]
    delta = shift_map(4)
    ring = FlipPolyRing(H, AdditiveMap.identity(4), delta, flipped=False)
    for m in range(5):
        for n in range(3):
            for r in H.basis():
                for s in H.basis():
                    acc = {}
                    for i in range(m + 1):
                        image = s
                        for _ in range(m - i):
                            image = delta(image)
                        coeff = H.mul(r, image).scaled(math.comb(m, i))
                        if not coeff.is_zero():
                            acc[i + n] = acc.get(i + n, H.zero()) + coeff
                    assert ring.mul(Poly({m: r}), Poly({n: s})) == Poly(acc)


def test_flip_equals_unflip_iff_commutative(algebras):
    C, H = algebras["C"], algebras["H"]
    ring_c = star_skew_ring(C)
    plain_c = FlipPolyRing(C, ring_c.sigma, ring_c.delta, flipped=False)
    for m in range(6):
        for n in range(6):
            for r in C.basis():
                for s in C.basis():
                    assert ring_c.monomial_product(m, r, n, s) == plain_c.monomial_product(
                        m, r, n, s
                    )
    ring_h = star_skew_ring(H)
    plain_h = FlipPolyRing(H, ring_h.sigma, ring_h.delta, flipped=False)
    one, i, j, k = H.basis()
    assert ring_h.monomial_product(0, i, 1, j) != plain_h.monomial_product(0, i, 1, j)


def test_bad_coefficients_and_degrees_rejected(algebras):
    H = algebras["H"]
    ring = star_skew_ring(H)
    five = AlgebraElement((1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        ring.mul(Poly({0: H.unit}), Poly({0: five}))
    with pytest.raises(ValueError):
        ring.mul(Poly({2: five}), Poly({1: H.unit}))
    with pytest.raises(ValueError):
        ring.monomial_product(0, H.unit, 1, AlgebraElement((1, 2, 3)))
    with pytest.raises(ValueError):
        ring.monomial_product(-1, H.unit, 0, H.unit)


# The non-integral tower has a multiplication table with entry 1/2.
_ALGEBRAS = {"H": named("H"), "O": named("O"), "(1/2, 3)": tower((Fraction(1, 2), 3))}
_SCALARS = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=6)
)


@st.composite
def _rings(draw):
    """A ring over H, O or the (1/2, 3) tower, flipped or not, with either the
    star and zero maps or sparse sigma/delta with Fraction entries."""
    algebra = _ALGEBRAS[draw(st.sampled_from(sorted(_ALGEBRAS)))]
    dim = algebra.dim
    if draw(st.booleans()):
        sigma, delta = AdditiveMap.from_star(algebra), AdditiveMap.zero(dim)
    else:
        # column 0 is the unit's: sigma keeps it fixed and delta kills it
        sigma_rows = [list(row) for row in algebra.involution.matrix]
        delta_rows = [[0] * dim for _ in range(dim)]
        for rows in (sigma_rows, delta_rows):
            for _ in range(draw(st.integers(1, 3))):
                i, j = draw(st.integers(0, dim - 1)), draw(st.integers(1, dim - 1))
                rows[i][j] = draw(_SCALARS)
        sigma, delta = AdditiveMap(sigma_rows, "sigma"), AdditiveMap(delta_rows, "delta")
    return FlipPolyRing(algebra, sigma, delta, flipped=draw(st.booleans()))


def _coefficients(dim):
    return st.lists(_SCALARS, min_size=dim, max_size=dim).map(AlgebraElement)


@st.composite
def _rings_and_operands(draw):
    """A ring from ``_rings``; plus a left operand of degree <= 12 and a right
    operand with dense mixed-denominator coefficients."""
    ring = draw(_rings())
    coeff = _coefficients(ring.coeff_algebra.dim)
    left = draw(st.dictionaries(st.integers(0, 12), coeff, min_size=1, max_size=2))
    right = draw(st.dictionaries(st.integers(0, 4), coeff, min_size=1, max_size=2))
    return ring, Poly(left), Poly(right)


def _oracle_product(ring, p, q):
    """sum of tau_n(a, pi_i^m(b)) X^(i+n), with pi from the enumeration oracle."""
    acc = {}
    for m, a in p.coeffs.items():
        for n, b in q.coeffs.items():
            for i in range(m + 1):
                v = ring.pi_oracle(i, m, b)
                term = tau(ring, n, a, v) if ring.flipped else ring.coeff_algebra.mul(a, v)
                acc[i + n] = acc[i + n] + term if i + n in acc else term
    return Poly(acc)


@settings(max_examples=60, deadline=None)
@given(_rings_and_operands())
def test_ring_mul_matches_pi_oracle_route(case):
    ring, p, q = case
    assert ring.mul(p, q) == _oracle_product(ring, p, q)


_WIDE = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 6))


@st.composite
def _wide_operands(draw):
    """A ring from ``_rings``, two operands of up to six terms each with
    numerators up to 2^64 of both signs, and the degree where their product
    cancels.  Each operand starts with two unit terms,
    (g X^k + a X^(k+1)) (b X^n - (ab/g) X^(n+1)), n >= 1, whose product is
    g b at degree n+k, 0 at n+k+1 and -a^2 b/g at n+k+2 (pi^m of the unit is
    the unit at i = m).  The other terms skip a degree and sit at left
    degrees above k+2 and right degrees above n+k+2, so none of their
    products reaches degree n+k+2."""
    ring = draw(_rings())
    dim, one = ring.coeff_algebra.dim, ring.coeff_algebra.unit
    g, a, b = (draw(_WIDE.filter(bool)) for _ in range(3))
    k, n = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    coeff = st.lists(_WIDE, min_size=dim, max_size=dim).map(AlgebraElement)
    left = {k: one.scaled(g), k + 1: one.scaled(a)}
    left |= draw(st.dictionaries(st.integers(k + 3, 7), coeff, max_size=4))
    right = {n: one.scaled(b), n + 1: one.scaled(-a * b / g)}
    right |= draw(st.dictionaries(st.integers(n + k + 3, n + k + 9), coeff, max_size=4))
    return ring, Poly(left), Poly(right), n + k + 1


@settings(max_examples=40, deadline=None)
@given(_wide_operands())
def test_wide_products_match_pi_oracle_route(case):
    """Products whose packed integers hold up to about 17 slots of 100 to 170
    bits, with degree gaps, n0 > 0 and a slot that cancels between two
    nonzero ones, equal the pi_oracle route."""
    ring, p, q, cancelled = case
    want = _oracle_product(ring, p, q)
    assert cancelled not in want.coeffs
    assert {cancelled - 1, cancelled + 1} <= set(want.coeffs)
    assert ring.mul(p, q) == want


def test_packed_slot_at_the_width_bound(algebras):
    """A slot of 2^64 beside a slot of 1: the width bound is 2^64 + 1, so the
    slot needs all bit_length(2^64 + 1) + 1 bits of its signed range."""
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.identity(4), AdditiveMap.zero(4), flipped=False)
    for sign in (1, -1):
        one = H.unit.scaled(sign)
        want = Poly({1: one.scaled(2**64), 2: one})
        assert ring.mul(Poly({1: H.unit}), Poly({0: one.scaled(2**64), 1: one})) == want


def _class_rings():
    """``(ring, proven period)`` pairs that put left degrees into every kind
    of period class: the star-skew rings (2), the ordinary ring (1, one class
    for every degree), a sigma of order 3 with and without the flip (6, 3), a
    sigma of order 2 with Fraction entries (2, so each class is scaled by a
    power of its denominator) and a nonzero delta (None, a class per degree)."""
    H = _ALGEBRAS["H"]
    rings = [(star_skew_ring(A), 2) for A in _ALGEBRAS.values()]
    rings.append((ordinary_ring(H), 1))
    rings += [(FlipPolyRing(H, _order_three_sigma(H), AdditiveMap.zero(4), f), 3 + 3 * f)
              for f in (True, False)]
    swap = [[1, 0, 0, 0], [0, 0, Fraction(1, 2), 0], [0, 2, 0, 0], [0, 0, 0, 1]]
    rings.append((FlipPolyRing(H, AdditiveMap(swap, "sigma"), AdditiveMap.zero(4), True), 2))
    e1 = H.basis()[1]
    delta = _map_of(H, lambda x: H.mul(x, e1) - H.mul(e1, x), "delta")
    rings.append((FlipPolyRing(H, AdditiveMap.from_star(H), delta, True), None))
    return rings


_CLASS_RINGS = _class_rings()


@st.composite
def _class_operands(draw):
    """A ring of ``_class_rings`` and a left operand of 3 to 8 terms of degree
    <= 12, two of them a period apart (so in one class), with numerators up to
    2^64 over mixed denominators; the right operand as in ``_rings_and_operands``."""
    ring, p = draw(st.sampled_from(_CLASS_RINGS))
    assert ring.period == p
    coeff = _coefficients(ring.coeff_algebra.dim) | st.lists(
        _WIDE, min_size=ring.coeff_algebra.dim, max_size=ring.coeff_algebra.dim
    ).map(AlgebraElement)
    base = draw(st.integers(0, 12 - (p or 1)))
    degrees = {base, base + (p or 1)}
    others = st.integers(0, 12).filter(lambda m: m not in degrees)
    degrees |= draw(st.sets(others, min_size=1, max_size=6))
    left = {m: draw(coeff.filter(lambda a: any(a.coords))) for m in degrees}
    right = draw(st.dictionaries(st.integers(0, 4), coeff, min_size=1, max_size=2))
    return ring, Poly(left), Poly(right)


@settings(max_examples=60, deadline=None)
@given(_class_operands())
def test_left_terms_of_one_period_class_match_pi_oracle_route(case):
    """The kernel packs the left terms of each class of degrees mod the
    proven period into one integer per coordinate and reads only the class's
    pi level; with several terms per class and every kind of class, the
    product equals the pi_oracle route."""
    ring, p, q = case
    assert len(p.coeffs) >= 3
    assert ring.mul(p, q) == _oracle_product(ring, p, q)


def test_one_class_slot_at_the_width_bound(algebras):
    """Left terms 2^32 X + X^3 of one class (periods 1 and 2) times
    X^0 + 2^32 X^2: their contributions add to 2^64 + 1 in the slot of degree
    3, the bound is (2^32 + 1)^2 = 2^64 + 2^33 + 1, and the slot needs all
    bit_length(bound) + 1 = 66 bits of its signed range, for either sign."""
    H = algebras["H"]
    for ring, p in ((ordinary_ring(H), 1), (star_skew_ring(H), 2)):
        assert ring.period == p and 1 % p == 3 % p
        for sign in (1, -1):
            one = H.unit.scaled(sign)
            left = Poly({1: one.scaled(2**32), 3: one})
            right = Poly({0: H.unit, 2: H.unit.scaled(2**32)})
            want = Poly({1: one.scaled(2**32), 3: one.scaled(2**64 + 1), 5: one.scaled(2**32)})
            assert ring.mul(left, right) == want


def evaluate_identity(kind, values, mul):
    """The identity ``kind`` at ``values`` (for x, b, c), from the product ``mul``:
    the words of ``algebra_core.IDENTITIES`` multiplied out one by one."""
    total = None
    for positive, p, q, r, inner_left in _TERMS[kind]:
        v = mul(values[p], values[q])
        if r is not None:
            v = mul(v, values[r]) if inner_left else mul(values[r], v)
        if total is None:
            total = v if positive else -v
        else:
            total = total + v if positive else total - v
    return total


@settings(max_examples=60, deadline=None)
@given(_rings(), st.data())
def test_identity_kernel_matches_ring_mul_route(ring, data):
    """``identity_at`` on ``FlipPolyRing._basis`` against the identity's words read with
    ``ring.mul`` on monomial ``Poly`` operands."""
    basis = ring.coeff_algebra.basis()
    kind = data.draw(st.sampled_from(sorted(IDENTITIES)))
    slot = st.tuples(st.integers(0, 3), st.integers(0, len(basis) - 1))
    slots = tuple(data.draw(slot) for _ in range(3))
    value = evaluate_identity(kind, [Poly({d: basis[i]}) for d, i in slots], ring.mul)
    want = {(d, k): v for d, c in value.coeffs.items() for k, v in enumerate(c.coords) if v}
    assert {key: v for key, v in identity_at(ring._basis, kind, slots).items() if v} == want


def test_basis_products_keep_operand_order(algebras):
    """Each cached basis-monomial product of degrees <= 3 over the
    non-commutative H equals ``ring.mul`` of the same operands in the same
    order, on the star-skew ring and on the flipped ring with sigma the
    identity (which ``alpha`` does not map onto its opposite)."""
    H = algebras["H"]
    e = H.basis()
    plain_flip = FlipPolyRing(H, AdditiveMap.identity(4), AdditiveMap.zero(4), flipped=True)
    for ring in (star_skew_ring(H), plain_flip):
        for m, i, n, j in itertools.product(range(4), repeat=4):
            p = ring.mul(Poly({m: e[i]}), Poly({n: e[j]}))
            want = tuple(
                ((d, k), v) for d, c in p.coeffs.items() for k, v in enumerate(c.coords) if v
            )
            assert ring._basis[(m, i)][(n, j)] == want, (m, i, n, j)


def _sorted_and_zero_free(p):
    return list(p.coeffs) == sorted(p.coeffs) and not any(c.is_zero() for c in p.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(_rings(), st.data())
def test_monomial_product_cache_is_transparent(ring, data):
    """A single-term product equals the product of a fresh ring and of the
    pi_oracle route; every product is a fresh object, so what a caller does to
    one never reaches a later product."""
    algebra = ring.coeff_algebra
    coeff = _coefficients(algebra.dim)
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 4))
    a, b = data.draw(coeff), data.draw(coeff)
    p, q = Poly({m: a}), Poly({n: b})
    expected = _oracle_product(ring, p, q)
    fresh = FlipPolyRing(algebra, ring.sigma, ring.delta, ring.flipped)
    assert fresh.mul(p, q) == expected
    first = ring.mul(p, q)
    assert first == expected and _sorted_and_zero_free(first)
    first.coeffs.clear()
    first.coeffs[m + n + 1] = algebra.unit
    as_dict = ring.monomial_product(m, a, n, b)  # after the caller mutated the first
    assert as_dict == expected.coeffs
    as_dict.clear()
    as_dict[0] = algebra.unit
    again = ring.mul(p, q)
    assert again == expected and _sorted_and_zero_free(again)
    assert ring.monomial_product(m, a, n, b) == expected.coeffs
    # a product of several terms, whose degrees the kernel meets out of order
    wide_p, wide_q = p + Poly({m + 3: b}), q + Poly({n + 1: a})
    wide = ring.mul(wide_p, wide_q)
    assert wide == _oracle_product(ring, wide_p, wide_q) and _sorted_and_zero_free(wide)
    short, long = AlgebraElement((1,) * (algebra.dim - 1)), AlgebraElement(b.coords + (1,))
    for _ in range(2):  # a failed product raises again when repeated
        with pytest.raises(ValueError):
            ring.mul(Poly({m: short}), q)
        with pytest.raises(ValueError):
            ring.monomial_product(m, a, n, long)


def test_cold_product_extends_only_the_columns_it_reads(algebras):
    """A cold degree-400 product over S, of one term or of several, reads
    level 400 mod 2 = 0 of the pi cache: no column grows past the period 2,
    and only the columns of the right factor's basis indices grow at all.
    With a nonzero delta the ring proves no period, and a cold product
    extends the columns it reads, and no other, through its left degree."""
    S = algebras["S"]
    e = S.basis()
    ring = star_skew_ring(S)
    assert ring.mul(Poly({400: e[3]}), Poly({400: e[5]})) == Poly({800: S.mul(e[3], e[5])})
    assert [len(column) for column in ring._columns] == [1] * 16
    p, q = Poly({399: e[1], 400: e[3]}), Poly({0: e[5], 7: e[6]})
    got = ring.mul(p, q)
    assert got == _recurrence_twin(ring).mul(p, q) and got.degree() == 407
    assert [len(column) for column in ring._columns] == [1 + (j in (5, 6)) for j in range(16)]
    H = algebras["H"]
    e1 = H.basis()[1]
    delta = _map_of(H, lambda x: H.mul(x, e1) - H.mul(e1, x), "delta")
    with_delta = FlipPolyRing(H, AdditiveMap.from_star(H), delta, True)
    assert with_delta.period is None
    with_delta.mul(Poly({40: H.unit}), Poly({3: e1}))
    assert [len(column) - 1 for column in with_delta._columns] == [0, 40, 0, 0]
    with_delta.mul(Poly({30: e1, 45: H.unit}), Poly({0: H.basis()[2], 2: e1}))
    assert [len(column) - 1 for column in with_delta._columns] == [0, 45, 45, 0]


def test_single_term_products_past_the_period_match_the_recurrence(algebras):
    """A single-term product reads level top mod p of the pi cache, raises
    each degree by top - top mod p and keeps step^(top mod p) in its
    denominator; with both degrees past the period it equals the recurrence
    twin's product, on the periodic rings of ``_periodic_rings``, with dense
    coefficients that have mixed signs and denominators."""
    for ring, period in _periodic_rings(algebras):
        dim, twin = ring.coeff_algebra.dim, _recurrence_twin(ring)
        a, b = (
            AlgebraElement(Fraction((-1) ** (r + s) * (r + s + 1), s + 2) for r in range(dim))
            for s in (0, 1)
        )
        for m, n in itertools.product(((period or 1) + 1, 23, 40, 41), (13, 40, 41)):
            p, q = Poly({m: a}), Poly({n: b})
            assert ring.mul(p, q) == twin.mul(p, q), (period, m, n)


def test_deep_degree_product(algebras):
    S = algebras["S"]
    e1, e2 = S.basis()[1:3]
    ring = star_skew_ring(S)
    assert ring.mul(Poly({5000: e1}), Poly({5000: e2})) == Poly({10000: S.mul(e1, e2)})


def test_shared_ring_across_threads(algebras):
    H = algebras["H"]
    one, i, j, k = H.basis()
    q = Poly({0: i + j, 3: k})
    degrees = [40, 5, 33, 12, 47, 21, 28, 9]

    def make_ring():
        return FlipPolyRing(H, AdditiveMap.from_star(H), shift_map(4), flipped=True)

    fresh = make_ring()
    expected = {m: fresh.mul(Poly({m: one + k}), q) for m in degrees}
    expected_single = {m: fresh.mul(Poly({m: j}), Poly({3: k})) for m in degrees}
    shared = make_ring()
    got = {}
    single = []

    def work(m):
        got[m] = shared.mul(Poly({m: one + k}), q)
        # every thread asks for the same single-term products, which the ring caches
        for d in degrees:
            single.append((d, shared.mul(Poly({d: j}), Poly({3: k}))))

    threads = [threading.Thread(target=work, args=(m,)) for m in degrees]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected
    assert len(single) == len(degrees) ** 2
    assert all(product == expected_single[d] for d, product in single)
    top = max(degrees)
    # no extension of a column was lost: each column read is as deep as the deepest product
    assert all(len(shared._columns[r]) > top for r in (1, 2, 3))
    assert all(shared.pi_matrix(i, top) == fresh.pi_matrix(i, top) for i in range(top + 1))


def test_shallow_extension_keeps_a_deeper_column(algebras):
    """Two extensions of one pi column start from the same tuple, and the
    deeper one is published first: here it runs from inside the shallower
    one's loop, the interleaving two threads can take.  The shallower one
    must not replace the deeper column when it finishes."""
    H = algebras["H"]

    def make_ring():
        return FlipPolyRing(H, AdditiveMap.from_star(H), shift_map(4), flipped=True)

    ring, deep = make_ring(), []

    class Interleaved(tuple):  # sigma's columns; the first read runs the deeper extension
        def __getitem__(self, k):
            if not deep:
                deep.append(None)  # before the nested call, which reads these columns too
                deep[0] = ring._column(1, 20)
            return tuple.__getitem__(self, k)

    den, steps = ring._step
    ring._step = den, tuple((shift, Interleaved(cols), scale) for shift, cols, scale in steps)
    shallow = ring._column(1, 5)
    assert len(shallow) == 6 and len(deep[0]) == 21
    assert ring._columns[1] == deep[0] == make_ring()._column(1, 20)


# ---------------------------------------------------------------------- the flip
def test_flip_of_plain_rule_swaps_on_odd_degrees(algebras):
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.identity(4), AdditiveMap.zero(4), flipped=True)
    one, i, j, k = H.basis()
    for m in range(3):
        for n in range(3):
            assert ring.monomial_product(m, i, n, j) == {m + n: tau(ring, n, i, j)}


def _flip_relation_holds(flipped, top):
    """Whether the flipped ring's (e_i X^m)(e_j X^n) is the sum over k of
    tau_n(e_i, c_k) X^k, where sum c_k X^k is (1 X^m)(e_j X^n) in the
    unflipped ring with the same sigma and delta; both sides are read from
    the rings' ``_basis`` and the algebra's table."""
    A = flipped.coeff_algebra
    plain = FlipPolyRing(A, flipped.sigma, flipped.delta, flipped=False)
    degrees, indices = range(top + 1), range(A.dim)
    for m, n, i, j in itertools.product(degrees, degrees, indices, indices):
        want = {}
        for (d, k), c in plain._basis[m, 0][n, j]:
            for s, t in A.table[k][i] if n % 2 else A.table[i][k]:
                want[d, s] = want.get((d, s), 0) + c * t
        if dict(flipped._basis[m, i][n, j]) != {key: v for key, v in want.items() if v}:
            return False
    return True


def test_flipped_product_is_tau_of_the_unflipped_one(algebras):
    for name in ("C", "H", "H'", "O"):
        assert _flip_relation_holds(star_skew_ring(algebras[name]), 4), name
    rings = list(random_sigma_delta_rings(algebras))
    assert len(rings) == 64
    for name, s, d, ring in rings:
        assert _flip_relation_holds(ring, 3), (name, s, d)


# ----------------------------------------------------------------- axiom suites
def test_axioms_f_family_holds_on_quaternion_ring(algebras):
    ring = star_skew_ring(algebras["H"])
    report = check_axioms(ring, "F", 3)
    assert report.passed
    assert report.checked > 0


def test_axioms_f_family_holds_with_nonzero_delta(algebras):
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.from_star(H), shift_map(4), flipped=True)
    assert check_axioms(ring, "F", 2).passed


def _failures(ring, family, degree_bound):
    """Every failing check's ``(axiom, witness text)``, in report order, read
    from the library's stream of checks."""
    return [
        (axiom, witness())
        for axiom, ok, witness in _axiom_checks(ring, family, degree_bound)
        if not ok
    ]


def _failures_digest(failures):
    """SHA-256 of the full list of ``(axiom, witness)`` pairs, in report order."""
    return hashlib.sha256(repr(failures).encode()).hexdigest()


def test_axioms_n_family_fails_on_quaternion_ring(algebras):
    ring = star_skew_ring(algebras["H"])
    report = check_axioms(ring, "N", 2)
    assert not report.passed
    assert report.first == (
        "N3", "(bX^0, cX^0, X) != 0 for b=(0, 1, 0, 0) c=(0, 0, 1, 0): [0,0,0,2]*X"
    )
    failures = _failures(ring, "N", 2)
    assert failures[0] == report.first
    assert (report.checked, report.failed, len(failures)) == (304, 108, 108)
    assert sum(", X, c" in witness for _, witness in failures) == 54
    assert failures[-1][1] == (
        "(bX^2, X, cX^2) != 0 for b=(0, 0, 0, 1) c=(0, 0, 1, 0): [0,2,0,0]*X^5"
    )
    assert _failures_digest(failures) == (
        "5bdba1aa15a5843d9222fccd95b741a1c9c0d22947b0fe4fcb438b5360a1a194"
    )


def test_axioms_o_family_on_complex_ring(algebras):
    assert check_axioms(star_skew_ring(algebras["C"]), "O", 3).passed


def test_axioms_o_family_fails_on_quaternion_ring(algebras):
    ring = star_skew_ring(algebras["H"])
    report = check_axioms(ring, "O", 2)
    assert not report.passed
    failures = _failures(ring, "O", 2)
    assert failures[0] == report.first
    assert (report.checked, report.failed, len(failures)) == (1744, 456, 456)
    assert {axiom for axiom, _ in failures} == {"O3"}
    assert failures[-1][1] == (
        "(aX^2, bX^2, cX^1) != 0 for a=(0, 0, 0, 1) b=(0, 0, 1, 0) c=(0, 0, 0, 1): "
        "[0,0,-2,0]*X^5"
    )
    assert _failures_digest(failures) == (
        "0fad58a64519e83d2920984e86e9b6d44da91391f236b15e15c920ff39d959ff"
    )


def test_axioms_f_family_fails_without_the_flip(algebras):
    # the unflipped ring over H multiplies constants by odd-degree monomials in
    # order, while F3b asks for the reversed product
    H = algebras["H"]
    ring = FlipPolyRing(H, AdditiveMap.from_star(H), AdditiveMap.zero(4), flipped=False)
    report = check_axioms(ring, "F", 2)
    failures = _failures(ring, "F", 2)
    assert (report.checked, report.failed, report.first) == (208, 6, failures[0])
    assert failures == [
        ("F3b", "n=1 r=(0, 1, 0, 0) s=(0, 0, 1, 0): [0,0,0,1]*X vs [0,0,0,-1]*X"),
        ("F3b", "n=1 r=(0, 1, 0, 0) s=(0, 0, 0, 1): [0,0,-1,0]*X vs [0,0,1,0]*X"),
        ("F3b", "n=1 r=(0, 0, 1, 0) s=(0, 1, 0, 0): [0,0,0,-1]*X vs [0,0,0,1]*X"),
        ("F3b", "n=1 r=(0, 0, 1, 0) s=(0, 0, 0, 1): [0,1,0,0]*X vs [0,-1,0,0]*X"),
        ("F3b", "n=1 r=(0, 0, 0, 1) s=(0, 1, 0, 0): [0,0,1,0]*X vs [0,0,-1,0]*X"),
        ("F3b", "n=1 r=(0, 0, 0, 1) s=(0, 0, 1, 0): [0,-1,0,0]*X vs [0,1,0,0]*X"),
    ]


def _reference_axiom_checks(ring, family, degree_bound, mul):
    """``flip_poly._axiom_checks`` through ``Poly`` operands and ``mul``, a
    memoized ``ring.mul``: the same checks in the same order, with the same
    witness text."""
    basis = ring.coeff_algebra.basis()
    degrees = range(degree_bound + 1)
    x = Poly({1: ring.coeff_algebra.unit})
    for m, r in itertools.product(degrees, basis):
        lhs = mul(Poly({m: r}), x)
        yield f"{family}1", lhs == Poly({m + 1: r}), lambda: (
            f"(rX^{m})X != rX^{m + 1} for r={r.coords}: got {poly_to_text(lhs)}"
        )
    for r in basis:
        lhs = mul(x, Poly({0: r}))
        rhs = Poly({0: ring.delta(r), 1: ring.sigma(r)})
        yield f"{family}2", lhs == rhs, lambda: (
            f"Xr != sigma(r)X + delta(r) for r={r.coords}: "
            f"{poly_to_text(lhs)} vs {poly_to_text(rhs)}"
        )
    if family == "F":
        for m, n, r, s in itertools.product(degrees, degrees, basis, basis):
            p, lhs = Poly({m: r}), mul(Poly({m + 1: r}), Poly({n: s}))
            rhs = mul(mul(p, Poly({n: ring.sigma(s)})), x) + mul(p, Poly({n: ring.delta(s)}))
            yield "F3a", lhs == rhs, lambda: (
                f"m={m} n={n} r={r.coords} s={s.coords}: "
                f"{poly_to_text(lhs)} vs {poly_to_text(rhs)}"
            )
        for n, r, s in itertools.product(degrees, basis, basis):
            lhs = mul(Poly({0: r}), Poly({n: s}))
            rhs = Poly({n: tau(ring, n, r, s)})
            yield "F3b", lhs == rhs, lambda: (
                f"n={n} r={r.coords} s={s.coords}: {poly_to_text(lhs)} vs {poly_to_text(rhs)}"
            )
    elif family == "N":
        for j, k, b, c in itertools.product(degrees, degrees, basis, basis):
            values = (x, Poly({j: b}), Poly({k: c}))
            right = evaluate_identity("nucleus_right", values, mul)
            yield "N3", right.is_zero(), lambda: (
                f"(bX^{j}, cX^{k}, X) != 0 for b={b.coords} c={c.coords}: {poly_to_text(right)}"
            )
            middle = evaluate_identity("nucleus_middle", values, mul)
            yield "N3", middle.is_zero(), lambda: (
                f"(bX^{j}, X, cX^{k}) != 0 for b={b.coords} c={c.coords}: {poly_to_text(middle)}"
            )
    else:
        for i, j, k, a, b, c in itertools.product(degrees, degrees, degrees, basis, basis, basis):
            monomials = (Poly({i: a}), Poly({j: b}), Poly({k: c}))
            value = evaluate_identity("nucleus_left", monomials, mul)
            yield "O3", value.is_zero(), lambda: (
                f"(aX^{i}, bX^{j}, cX^{k}) != 0 for a={a.coords} b={b.coords} c={c.coords}: "
                f"{poly_to_text(value)}"
            )


def _axiom_test_rings(algebras):
    """``(name, ring, tops)``, each family to be checked at bounds 0 to
    ``tops[family]``: star-skew rings and their unflipped twins over C to O
    and a non-integral tower; rings over H and O with the delta
    x -> [x, e1]/3 under sigma the star and the identity; and the 64 rings of
    ``random_sigma_delta_rings``.  Family O stops at bound 1 on the random
    rings: their products are dense with Fraction coefficients, so bound 3
    alone takes about 38 s on the two routes, and N3 runs the same identity
    kernel on them up to bound 3."""
    bases = [(name, algebras[name]) for name in ("C", "C'", "H", "H'", "O")]
    bases.append(("tower(1/2, 3)", tower([Fraction(1, 2), 3])))
    rings = []
    for name, A in bases:
        for flipped in (True, False):
            ring = FlipPolyRing(A, AdditiveMap.from_star(A), AdditiveMap.zero(A.dim), flipped)
            rings.append((f"{name} flipped={flipped}", ring))
    for name in ("H", "O"):
        A = algebras[name]
        e1 = A.basis()[1]
        cols = [(A.mul(e, e1) - A.mul(e1, e)).scaled(Fraction(1, 3)).coords for e in A.basis()]
        delta = AdditiveMap([[col[i] for col in cols] for i in range(A.dim)], "delta")
        for label, sigma in (("star", AdditiveMap.from_star(A)), ("1", AdditiveMap.identity(A.dim))):
            ring = FlipPolyRing(A, sigma, delta, flipped=True)
            rings.append((f"{name} sigma {label} delta [x, e1]/3", ring))
    for name, ring in rings:
        top = 2 if ring.coeff_algebra.dim == 8 else 3
        yield name, ring, {"O": top, "N": top, "F": top}
    for name, s, d, ring in random_sigma_delta_rings(algebras):
        yield f"{name} sigma {s} delta {d}", ring, {"O": 1, "N": 3, "F": 3}


def test_axiom_checks_match_the_ring_mul_route(algebras):
    """The library's stream of checks is the ``Poly`` and ``ring.mul``
    route's, in order: every check's axiom and verdict, and every failure's
    witness text; and ``check_axioms`` reports that stream's count and first
    failure."""
    axioms = set()
    for name, ring, tops in _axiom_test_rings(algebras):
        mul = memoized_mul(ring)  # one memo for every family and bound of the ring
        for family, top in tops.items():
            for bound in range(top + 1):
                where = (name, family, bound)
                checked = failed = 0
                first = None
                for (axiom, ok, witness), (ref_axiom, ref_ok, ref_witness) in itertools.zip_longest(
                    _axiom_checks(ring, family, bound),
                    _reference_axiom_checks(ring, family, bound, mul),
                    fillvalue=(None, None, None),
                ):
                    assert (axiom, ok) == (ref_axiom, ref_ok), (where, checked)
                    checked += 1
                    if not ok:
                        text = witness()
                        assert text == ref_witness(), (where, checked)
                        failed += 1
                        first = first or (axiom, text)
                        axioms.add(axiom)
                reference = AxiomReport(family, bound, checked, failed, first)
                assert check_axioms(ring, family, bound) == reference, where
    assert axioms == {"O3", "N3", "F3b"}, axioms


def test_axiom_report_memory_does_not_grow_with_the_failures(algebras):
    """A report keeps a count and the first failure: on a warm ring over H,
    family O at bound 4 (2,352 failures) peaks under 64 KB of new memory."""
    ring = star_skew_ring(algebras["H"])
    warm = check_axioms(ring, "O", 4)
    tracemalloc.start()
    try:
        report = check_axioms(ring, "O", 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert report == warm and report.failed == 2352


def test_axioms_validation():
    ring = star_skew_ring(named("C"))
    with pytest.raises(ValueError):
        check_axioms(ring, "Z", 2)
    with pytest.raises(ValueError):
        check_axioms(ring, "F", 9)


# ---------------------------------------------------------------------- grading
def test_graded_split_reindexes(algebras):
    H = algebras["H"]
    one, i, j, k = H.basis()
    p = Poly({0: one, 1: i, 2: j, 3: k})
    even, odd = psi_inv(H, p)
    assert even == Poly({0: one, 1: j})
    assert odd == Poly({0: i, 1: k})
    assert psi(H, (even, odd)) == p


def test_graded_split_of_zero(algebras):
    even, odd = psi_inv(algebras["H"], Poly())
    assert even.is_zero() and odd.is_zero()


def test_even_layer_multiplies_like_the_square_ring(algebras):
    # t -> X^2 of Theorem 2: sigma^2 is the identity and delta is zero, so the
    # even layer of the star-skew ring multiplies in the ordinary ring
    for A in algebras.values():
        ring, square = star_skew_ring(A), ordinary_ring(A)
        for m, n in itertools.product(range(4), repeat=2):
            for a, b in itertools.product(A.basis(), repeat=2):
                product = ring.mul(Poly({2 * m: a}), Poly({2 * n: b}))
                even, odd = psi_inv(A, product)
                assert odd.is_zero()
                assert even == square.mul(Poly({m: a}), Poly({n: b}))


# -------------------------------------------------------------------- io/forms
def test_poly_text_round_trip(algebras):
    H = algebras["H"]
    p = Poly({0: H.basis()[0].scaled(Fraction(1, 2)), 2: -H.basis()[3]})
    text = poly_to_text(p)
    assert text == "[1/2,0,0,0] + [0,0,0,-1]*X^2"
    assert parse_poly(text, 4) == p
    assert parse_poly("0", 4).is_zero()
    assert poly_to_text(Poly()) == "0"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_poly_text_round_trips(data):
    dim = data.draw(st.integers(1, 16))
    vectors = st.lists(exact_scalars, min_size=dim, max_size=dim).map(AlgebraElement)
    p = Poly(data.draw(st.dictionaries(st.integers(0, 12), vectors, max_size=13)))
    assert parse_poly(poly_to_text(p), dim) == p


def test_poly_text_parse_accepts_signed_terms():
    p = parse_poly("[1,0] - [0,2]*X + [0,1]*X^3", 2)
    assert p.coeffs[1] == AlgebraElement((0, -2))
    assert tuple(p.coeffs) == (0, 1, 3)


def test_poly_parse_errors():
    with pytest.raises(ValueError):
        parse_poly("[1,0", 2)
    with pytest.raises(ValueError):
        parse_poly("[1]*X", 2)
    with pytest.raises(ValueError):
        parse_poly("e0 + e1", 2)
    with pytest.raises(ValueError):
        parse_poly("[1,0]*Y", 2)
    # the exponent is ASCII digits right after the caret
    for text in ("[1,0]*X^1_000", "[1,0]*X^ 2", "[1,0]*X^\u0663"):
        with pytest.raises(ValueError):
            parse_poly(text, 2)


def test_poly_parse_zero_denominator_is_a_value_error():
    for text in ("[1/0,0]", "[1,0] + [0,2/0]*X"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_poly(text, 2)


def test_poly_json_round_trip(algebras):
    H = algebras["H"]
    p = Poly({1: H.basis()[1], 4: H.basis()[2].scaled(Fraction(-2, 3))})
    data = poly_to_json(p)
    assert data == {"1": ["0", "1", "0", "0"], "4": ["0", "0", "-2/3", "0"]}


def test_poly_invariants():
    z = AlgebraElement((0, 0))
    assert Poly({3: z}).is_zero()
    with pytest.raises(ValueError):
        Poly({-1: AlgebraElement((1, 0))})
    p = Poly({0: AlgebraElement((1, 0)), 2: AlgebraElement((0, 1))})
    assert p.degree() == 2
    assert Poly().degree() == -1
    assert p.coeff(1, 2).is_zero()


def test_additive_map_is_a_linear_map_with_a_kind(algebras):
    H = algebras["H"]
    sigma, delta = AdditiveMap.from_star(H), shift_map(4)
    assert isinstance(sigma, linalg.LinearMap) and sigma.kind == "sigma"
    assert sigma == H.involution == AdditiveMap.from_rows(H.involution.matrix)
    ring = FlipPolyRing(H, sigma, delta, flipped=True)
    assert ring.sigma.matrix == ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1))
    assert ring.delta.matrix == ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"maps must be passed as \(sigma, delta\)"):
        FlipPolyRing(H, delta, sigma, flipped=True)
    # a plain LinearMap has no kind, so it is no sigma or delta either
    zero = AdditiveMap.zero(4)
    for maps in (H.involution, zero), (sigma, linalg.LinearMap(4, ((),) * 4)):
        with pytest.raises(ValueError, match=r"maps must be passed as \(sigma, delta\)"):
            FlipPolyRing(H, *maps, flipped=True)


def test_additive_map_unit_constraints(algebras):
    H = algebras["H"]
    bad_sigma = AdditiveMap(shift_map(4).matrix, "sigma")
    with pytest.raises(ValueError):
        FlipPolyRing(H, bad_sigma, AdditiveMap.zero(4), flipped=True)
    bad_delta_rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        FlipPolyRing(
            H,
            AdditiveMap.from_star(H),
            AdditiveMap(bad_delta_rows, "delta"),
            flipped=True,
        )
