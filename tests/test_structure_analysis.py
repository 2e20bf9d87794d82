from fractions import Fraction
from itertools import product

import pytest

from flipcayley import (
    AlgebraElement,
    Poly,
    QuotientRing,
    StarAlgebra,
    alpha,
    linalg,
    ordinary_ring,
    star_skew_ring,
    tower,
)
from flipcayley import structure_analysis as sa
from flipcayley.algebra_core import NUCLEUS_SIDES, identity_at
from flipcayley.flip_poly import AdditiveMap, FlipPolyRing, check_axioms
from conftest import (
    exchange_algebras,
    matrix_algebras,
    memoized_mul,
    random_sigma_delta_rings,
    raw_rows,
    rebased_octonions,
    sparse_exchange_algebras,
    triangular_algebras,
    twisted_group_algebras,
)


# --------------------------------------------------------- generator in nuclei
def test_x_in_nucleus_commutative_base(algebras):
    ring = star_skew_ring(algebras["C"])
    assert sa.x_in_nucleus(ring, "left")
    assert sa.x_in_nucleus(ring, "middle")
    assert sa.x_in_nucleus(ring, "right")


def test_x_in_nucleus_quaternion_base(algebras):
    ring = star_skew_ring(algebras["H"])
    assert not sa.x_in_nucleus(ring, "left")
    assert not sa.x_in_nucleus(ring, "middle")
    assert not sa.x_in_nucleus(ring, "right")


def _off_named_set():
    """Algebras outside the named set, for cross-checking the criteria."""
    return (
        exchange_algebras()
        + sparse_exchange_algebras()
        + matrix_algebras()
        + [
            ("tower(1/2, 3)", tower([Fraction(1, 2), 3])),
            ("tower(2/3, -1, 5)", tower([Fraction(2, 3), -1, 5])),
        ]
    )


def test_x_in_nucleus_cross_validation(algebras):
    names = ("C", "C'", "H", "H'", "O", "S")
    for name, A in [(name, algebras[name]) for name in names] + _off_named_set():
        ring = star_skew_ring(A)
        for side in sa.X_SIDES:
            assert sa.x_in_nucleus(ring, side) == sa.x_in_nucleus_bruteforce(
                ring, side, 2
            ), (name, side)


def test_x_in_nucleus_validation(algebras):
    ring = star_skew_ring(algebras["C"])
    with pytest.raises(ValueError):
        sa.x_in_nucleus(ring, "top")
    with pytest.raises(ValueError):
        sa.x_in_nucleus_bruteforce(ring, "left", 5)


def test_middle_chain_with_nonzero_delta(algebras):
    # identity sigma with a nilpotent delta: the stable subspace is everything,
    # so the generator sits in the middle nucleus exactly when the base commutes
    for name in ("C", "H"):
        A = algebras[name]
        rows = [[0] * A.dim for _ in range(A.dim)]
        for i in range(A.dim - 1):
            rows[i][i + 1] = 1
        ring = FlipPolyRing(
            A,
            AdditiveMap.identity(A.dim),
            AdditiveMap(rows, "delta"),
            flipped=True,
        )
        assert sa.x_in_nucleus(ring, "middle") == A.is_commutative()


def test_x_in_nucleus_with_random_sigma_and_delta(algebras):
    seen = {side: set() for side in sa.X_SIDES}
    for name, s, d, ring in random_sigma_delta_rings(algebras):
        for side in sa.X_SIDES:
            got = sa.x_in_nucleus(ring, side)
            assert got == sa.x_in_nucleus_bruteforce(ring, side, 2), (name, s, d, side)
            seen[side].add(got)
    assert all(answers == {True, False} for answers in seen.values()), seen


def test_axiom_family_n_matches_the_criteria(algebras):
    # family N asks X to lie in the right and the middle nucleus, degree by
    # degree up to its bound; the criteria decide both for every degree
    answers = set()
    for name, s, d, ring in random_sigma_delta_rings(algebras):
        want = sa.x_in_nucleus(ring, "right") and sa.x_in_nucleus(ring, "middle")
        assert check_axioms(ring, "N", 2).passed == want, (name, s, d)
        answers.add(want)
    assert answers == {True, False}


# -------------------------------------------------------- inheritance criteria
def test_associativity_criterion(algebras):
    assert sa.ring_is_associative_criterion(star_skew_ring(algebras["C"]))
    assert not sa.ring_is_associative_criterion(star_skew_ring(algebras["H"]))
    assert sa.ring_is_associative_criterion(ordinary_ring(algebras["R"]))


def test_associativity_criterion_matches_the_ring_associators(algebras):
    """The criterion against every associator (a X^i, b X^j, c X^k) of basis
    monomials of degree <= 2, read from the ring's cached products."""
    answers = set()
    for name, s, d, ring in random_sigma_delta_rings(algebras):
        slots = list(product(range(3), range(ring.coeff_algebra.dim)))
        associative = not any(
            any(identity_at(ring._basis, "nucleus_left", triple).values())
            for triple in product(slots, repeat=3)
        )
        assert sa.ring_is_associative_criterion(ring) == associative, (name, s, d)
        answers.add(associative)
    assert answers == {True, False}


def test_criteria_reject_unflipped_rings_over_noncommutative_algebras(algebras):
    # H[X] is associative with X central, which the flipped criteria would deny
    ring = ordinary_ring(algebras["H"])
    with pytest.raises(ValueError):
        sa.ring_is_associative_criterion(ring)
    for side in sa.X_SIDES:
        with pytest.raises(ValueError):
            sa.x_in_nucleus(ring, side)
    # over a commutative algebra the flip changes nothing, so the answer stands
    ring = ordinary_ring(algebras["C"])
    for side in sa.X_SIDES:
        assert sa.x_in_nucleus(ring, side) == sa.x_in_nucleus_bruteforce(ring, side, 2)


def test_flexible_and_alternative_criteria(algebras):
    assert sa.b_alternative_criterion(algebras["H"])
    assert not sa.b_alternative_criterion(algebras["O"])
    assert sa.b_flexible_criterion(algebras["O"])
    assert sa.b_flexible_criterion(algebras["H"])


def test_star_twisted_associators_match_the_dense_loop(algebras):
    """``_associators_star_invariant`` against (a, b, c) = (a, b*, c*) through
    the public ``associator`` and ``star``, on every fixture algebra,
    non-diagonal stars included."""
    cases = (
        list(algebras.items()) + _off_named_set() + triangular_algebras()
        + twisted_group_algebras() + [("rebased O", rebased_octonions())]
    )
    outcomes = set()
    for name, A in cases:
        basis, assoc, star = A.basis(), A.associator, A.star
        want = all(
            assoc(a, b, c) == assoc(a, star(b), star(c))
            for a in basis for b in basis for c in basis
        )
        assert sa._associators_star_invariant(A) == want, name
        outcomes.add(want)
    assert outcomes == {True, False}


def test_criteria_agree_with_quotient_evaluation(algebras):
    for name, A in [(name, algebras[name]) for name in ("C", "H", "O")] + _off_named_set():
        predicted = (
            sa.b_commutative_criterion(A),
            sa.ring_is_associative_criterion(star_skew_ring(A)),
            sa.b_flexible_criterion(A),
            sa.b_alternative_criterion(A),
            sa.alpha_trivial_criterion(A),
        )
        for mu in (-1, 1, Fraction(2, 3)):
            Q = QuotientRing(A, mu).to_star_algebra()
            actual = (
                Q.is_commutative(),
                Q.is_associative(),
                Q.is_flexible(),
                Q.is_alternative(),
                Q.involution.is_identity(),
            )
            assert actual == predicted, (name, mu)


def test_commutativity_and_alpha_criteria(algebras):
    assert sa.b_commutative_criterion(algebras["R"])
    assert not sa.b_commutative_criterion(algebras["C"])
    assert not sa.alpha_trivial_criterion(algebras["C"])
    assert not sa.alpha_trivial_criterion(algebras["R"])


# ------------------------------------------------------------- degreewise sets
def test_degreewise_set_patterns(algebras):
    R, C, H = algebras["R"], algebras["C"], algebras["H"]
    commuter_R = sa.degreewise_set(R, "commuter", 5)
    assert commuter_R.dims() == {i: 1 for i in range(6)}
    center_C = sa.degreewise_set(C, "center", 5)
    assert center_C.dims() == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
    nucleus_H = sa.degreewise_set(H, "nucleus", 5)
    assert nucleus_H.dims() == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 0}
    # the even-degree basis is the unit line
    assert [e.coords for e in nucleus_H.per_degree[0]] == [(1, 0, 0, 0)]


def test_degreewise_set_full_for_associative_commutative(algebras):
    R = algebras["R"]
    for kind in sa.SET_KINDS:
        ds = sa.degreewise_set(R, kind, 3)
        assert ds.dims() == {i: 1 for i in range(4)}


def test_degreewise_cross_validation_small(algebras):
    for name, A in [(name, algebras[name]) for name in ("R", "C", "H")] + _off_named_set():
        for kind in sa.SET_KINDS:
            assert sa.degreewise_set(A, kind, 2) == sa.degreewise_set_bruteforce(
                A, kind, 2
            ), (name, kind)


def test_left_right_nucleus_brute_force_consistency(algebras):
    # the combined set raises if the two one-sided systems ever disagreed
    for name in ("C'", "H"):
        ds = sa.degreewise_set_bruteforce(algebras[name], "left_right_nucleus", 2)
        assert ds.bound == 2


def test_degreewise_validation(algebras):
    with pytest.raises(ValueError):
        sa.degreewise_set(algebras["C"], "everything", 2)
    with pytest.raises(ValueError):
        sa.degreewise_set(algebras["C"], "center", 9)
    with pytest.raises(ValueError):
        sa.degreewise_set_bruteforce(algebras["C"], "center", 5)


def test_degreewise_set_equality_semantics(algebras):
    a = sa.degreewise_set(algebras["C"], "center", 2)
    b = sa.degreewise_set(algebras["C"], "center", 2)
    c = sa.degreewise_set(algebras["C"], "commuter", 2)
    assert a == b
    assert a != c


def test_z_star_is_alpha_fixed_part_of_brute_force_center(algebras):
    """Oracle: the alpha-fixed elements of the brute-force center, degree by degree."""
    for name in ("R", "C", "C'", "H", "H'"):
        A = algebras[name]
        ring = star_skew_ring(A)
        center = sa.degreewise_set_bruteforce(A, "center", 2)
        zs = sa.z_star_of_b(A, 2)
        for i, basis in center.per_degree.items():
            moved = [alpha(ring, Poly({i: b})).coeff(i, A.dim) - b for b in basis]
            rows = [tuple(v.coords[r] for v in moved) for r in range(A.dim)]
            fixed = [
                sum((b.scaled(c) for c, b in zip(lam, basis)), A.zero()).coords
                for lam in linalg.nullspace(rows, len(basis))
            ]
            want = linalg.row_space(fixed, A.dim)
            assert tuple(e.coords for e in zs.per_degree[i]) == want, (name, i)


def test_z_star_patterns(algebras):
    for name in ("R", "C", "H"):
        zs = sa.z_star_of_b(algebras[name], 6)
        assert zs.dims() == {i: (1 if i % 2 == 0 else 0) for i in range(7)}, name


def test_corollary_patterns_small_bound():
    for n in range(4):
        A = tower([-1] * n)
        commuter = sa.degreewise_set(A, "commuter", 4)
        center = sa.degreewise_set(A, "center", 4)
        assert commuter.per_degree == center.per_degree
        for i in range(5):
            expected = 1 if (n == 0 or i % 2 == 0) else 0
            assert len(center.per_degree[i]) == expected
        nucleus = sa.degreewise_set(A, "nucleus", 4)
        for i in range(5):
            expected = A.dim if n <= 1 else (1 if i % 2 == 0 else 0)
            assert len(nucleus.per_degree[i]) == expected


# ------------------------------------------------- reduced row spaces per kind
def _raw_solve(A, kinds):
    """Nullspace of the concatenated raw rows of every kind."""
    rows = [row for kind in kinds for row in raw_rows(A, kind)]
    return tuple(AlgebraElement(v) for v in linalg.nullspace(rows, A.dim))


_TOWERS = [
    ("tower(1/2, 3, -1)", tower([Fraction(1, 2), 3, -1])),
    ("tower(1, 1, 1)", tower([1, 1, 1])),
]
_ROW_KINDS = sorted({kind for pair in sa._KIND_ROWS.values() for kinds in pair for kind in kinds})


def test_row_space_route_matches_raw_rows(algebras):
    cases = list(algebras.items()) + _TOWERS + exchange_algebras() + twisted_group_algebras()
    tuples = {kinds for pair in sa._KIND_ROWS.values() for kinds in pair}
    nuclei = ("nucleus_left", "nucleus_middle", "nucleus_right")
    for name, A in cases:
        for kinds in sorted(tuples):
            assert A._solve(kinds) == _raw_solve(A, kinds), (name, kinds)
        public = [
            (A.commuter_basis(), ("commuter",)),
            (A.nucleus_basis(), nuclei),
            (A.z_star_basis(), ("commuter",) + nuclei + ("star_fixed",)),
        ]
        public += [(A.nucleus_basis(side), (f"nucleus_{side}",)) for side in sa.X_SIDES]
        for got, kinds in public:
            assert got == _raw_solve(A, kinds), (name, kinds)


def test_z_star_matches_the_negation_fixed_route(algebras):
    """``z_star_of_b`` is the center at even degrees and 0 at odd ones; the
    reference solves the center's even kinds, and its odd kinds plus -x = x,
    from the raw rows."""
    even, odd = sa._KIND_ROWS["center"]
    want = (even, odd + ("negation_fixed",))
    cases = list(algebras.items()) + _TOWERS + exchange_algebras() + sparse_exchange_algebras()
    for name, A in cases:
        per_degree = sa.z_star_of_b(A, 3).per_degree
        for i in range(4):
            assert per_degree[i] == _raw_solve(A, want[i % 2]), (name, i)


def test_basis_wise_route_matches_elimination(algebras):
    cases = list(algebras.items()) + _TOWERS + [
        ("tower(2/3, -1, 5)", tower([Fraction(2, 3), -1, 5])),
        ("tower([-1] * 5)", tower([-1] * 5)),
    ]
    tuples = sorted({kinds for pair in sa._KIND_ROWS.values() for kinds in pair})
    for name, A in cases:
        assert A._signs() is not None, name
        general = StarAlgebra(A.table, A.involution)  # a copy with its own cache
        general._cache["signs"] = None  # that solves by elimination
        for kinds in tuples:
            assert A._solve(kinds) == general._solve(kinds), (name, kinds)
        for side in NUCLEUS_SIDES:
            assert A.nucleus_basis(side) == general.nucleus_basis(side), (name, side)


def test_single_entry_tables_off_xor_are_not_monomial():
    # one entry per product, but not at e_(i xor j): the group algebra Q[Z/3],
    # and 1, u, v with u^2 = v^2 = uv = 1, whose middle nucleus holds u - v
    # but neither u nor v, so the basis-wise route would miss it
    def algebra(index):  # e_i e_j = e_index(i, j), with the trivial star
        table = [[[(index(i, j), 1)] for j in range(3)] for i in range(3)]
        return StarAlgebra(table, linalg.LinearMap.identity(3))

    z3 = algebra(lambda i, j: (i + j) % 3)
    uv = algebra(lambda i, j: i or j if i * j == 0 else 0)
    tuples = sorted({kinds for pair in sa._KIND_ROWS.values() for kinds in pair})
    for A in (z3, uv):
        assert A._signs() is None
        for kinds in tuples:
            assert A._solve(kinds) == _raw_solve(A, kinds), (A.table, kinds)
    assert z3._solve(sa._Z_ROWS) == tuple(z3.basis())  # the center
    assert uv.nucleus_basis("middle") == (uv.unit, AlgebraElement([0, 1, -1]))


def test_each_row_kind_matches_raw_rows(algebras):
    # a wrong kind can hide in the joint nullspace of a kind tuple, so each kind
    # is compared on its own; a kind of rank 0 or dim cannot tell a wrong
    # identity from a right one, so the pair kinds and kill_commutators must
    # meet a proper rank (the latter only on the triangular algebras)
    cases = list(algebras.items()) + _TOWERS + exchange_algebras() + sparse_exchange_algebras()
    cases += triangular_algebras()
    proper = set()
    for name, A in cases:
        for kind in _ROW_KINDS:
            got = linalg.row_space(A._rows(kind), A.dim)
            assert got == linalg.row_space(raw_rows(A, kind), A.dim), (name, kind)
            if 0 < len(got) < A.dim:
                proper.add(kind)
    assert {"swap_right", "outer_twist", "exchange_right", "exchange_left"} <= proper
    assert "kill_commutators" in proper


def test_constraint_rows_are_distinct_and_nonzero(algebras):
    for name, A in list(algebras.items()) + _TOWERS:
        for kind in _ROW_KINDS:
            rows = A._rows(kind)
            assert all(any(row) for row in rows), (name, kind)
            assert len(set(rows)) == len(rows), (name, kind)


_BRUTE_PRIMITIVES = ("commuter", "nucleus_left", "nucleus_middle", "nucleus_right")


def _raw_brute_rows(A, mul, degree, kind):
    """The brute-force oracle's constraint rows over the algebra A, rebuilt
    from ``mul``, a memoized ``ring.mul``, with the other slots at degrees 0
    to 2 whatever the ring's period."""
    n = A.dim
    window = range(3)

    def commutator(x, y):
        return mul(x, y) - mul(y, x)

    def associator(x, y, z):
        return mul(mul(x, y), z) - mul(x, mul(y, z))

    if kind == "commuter":
        maps = [
            lambda x, y=Poly({j: b}): commutator(x, y) for j in window for b in A.basis()
        ]
    else:
        place = {
            "nucleus_left": lambda x, y, z: (x, y, z),
            "nucleus_middle": lambda x, y, z: (y, x, z),
            "nucleus_right": lambda x, y, z: (y, z, x),
        }[kind]
        maps = [
            lambda x, y=Poly({j: b}), z=Poly({k: c}): associator(*place(x, y, z))
            for j in window
            for k in window
            for b in A.basis()
            for c in A.basis()
        ]
    rows = []
    for f in maps:
        images = [f(Poly({degree: a})) for a in A.basis()]
        for d in sorted({d for img in images for d in img.coeffs}):
            cols = [img.coeff(d, n).coords for img in images]
            rows.extend(tuple(col[r] for col in cols) for r in range(n))
    return rows


def test_brute_row_spaces_span_the_raw_rows(algebras):
    """The oracle's rows are the distinct nonzero rows of ring products with
    the other slots at degrees 0 to 2, on star-skew rings, whose proven
    period 2 leaves degree 2 out."""
    # every kind must meet a proper rank somewhere, or it could not tell a
    # wrong ring identity from a right one
    cases = [(name, star_skew_ring(algebras[name])) for name in ("C'", "H", "H'")]
    cases += [(name, star_skew_ring(A)) for name, A in _off_named_set()]
    assert [ring.period for _, ring in cases] == [2] * len(cases)
    proper = set()
    for name, ring in cases:
        A = ring.coeff_algebra
        mul = memoized_mul(ring)  # one memo for every degree and kind
        top = sa.BRUTE_BOUND_LIMIT if A.dim <= 4 else 2
        for degree in range(top + 1):
            for kind in _BRUTE_PRIMITIVES:
                rows = sa._brute_primitive_rows(ring, (degree, kind))
                got = linalg.row_space(rows, A.dim)
                raw = _raw_brute_rows(A, mul, degree, kind)
                if name == "H":
                    assert len(raw) > A.dim, (degree, kind)
                assert got == linalg.row_space(raw, A.dim), (name, degree, kind)
                # what a period leaves out repeats rows exactly
                assert set(rows) == {row for row in raw if any(row)}, (name, degree, kind)
                if 0 < len(got) < A.dim:
                    proper.add(kind)
    assert proper == set(_BRUTE_PRIMITIVES)
