import json
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import xor

import pytest

from flipcayley import (
    AlgebraElement,
    StarAlgebra,
    linalg,
    tower,
    zero_element,
)
from flipcayley.algebra_core import (
    _SIGN_WORDS,
    _UNIT_KINDS,
    IDENTITIES,
    IDENTITY_ARITY,
    identity_at,
)
from conftest import (
    assert_json_is_algebra,
    constraint_rows,
    exchange_algebras,
    identity_matrix,
    mat_mul,
    matrix_algebras,
    sparse_exchange_algebras,
    subspace_eq,
    subspace_intersect,
    triangular_algebras,
    twisted_group_algebras,
)


def _span(elements):
    return [e.coords for e in elements]


def _center(A):
    return A._solve(("commuter", "nucleus_left", "nucleus_middle", "nucleus_right"))


def rand_element(algebra, rng, lo=-2, hi=2):
    return AlgebraElement(
        Fraction(rng.randint(lo, hi), rng.choice((1, 2))) for _ in range(algebra.dim)
    )


# ------------------------------------------------------------------ arithmetic
def test_quaternion_products(algebras):
    H = algebras["H"]
    one, i, j, k = H.basis()
    assert H.mul(i, j) == k
    assert H.mul(j, i) == -k
    assert H.mul(j, k) == i
    assert H.mul(i, i) == -one
    assert H.mul(one, i + j) == i + j


def test_complex_defining_relation(algebras):
    C = algebras["C"]
    one, i = C.basis()
    assert C.mul(i, i) == -one


def test_mul_dimension_mismatch(algebras):
    H = algebras["H"]
    with pytest.raises(ValueError):
        H.mul(H.unit, zero_element(3))


def test_commutator(algebras):
    H, C = algebras["H"], algebras["C"]
    one, i, j, k = H.basis()
    assert (H.mul(i, i) - H.mul(i, i)).is_zero()
    assert H.mul(i, j) - H.mul(j, i) == k.scaled(2)
    c1, ci = C.basis()
    assert (C.mul(ci, c1 + ci) - C.mul(c1 + ci, ci)).is_zero()


def test_associator(algebras):
    H, O = algebras["H"], algebras["O"]
    rng = random.Random(3)
    for _ in range(20):
        x, y, z = (rand_element(H, rng) for _ in range(3))
        assert H.associator(x, y, z).is_zero()
    b = O.basis()
    # frozen from the doubling formula: (e1 e2) e4 = e7, e1 (e2 e4) = -e7
    assert O.associator(b[1], b[2], b[4]) == b[7].scaled(2)
    assert O.associator(O.unit, b[3], b[5]).is_zero()


# ------------------------------------------------------------------- subspaces
def test_commuter_bases(algebras):
    assert _span(algebras["H"].commuter_basis()) == [(1, 0, 0, 0)]
    assert len(algebras["C"].commuter_basis()) == 2
    assert _span(algebras["O"].commuter_basis()) == [(1,) + (0,) * 7]


def test_nucleus_bases(algebras):
    H, O, S = algebras["H"], algebras["O"], algebras["S"]
    assert len(H.nucleus_basis("full")) == 4
    assert _span(O.nucleus_basis("full")) == [(1,) + (0,) * 7]
    assert _span(S.nucleus_basis("full")) == [(1,) + (0,) * 15]


def test_nucleus_is_intersection_of_sides(algebras):
    for name in ("C'", "H", "O"):
        A = algebras[name]
        left = _span(A.nucleus_basis("left"))
        middle = _span(A.nucleus_basis("middle"))
        right = _span(A.nucleus_basis("right"))
        full = _span(A.nucleus_basis("full"))
        inter = subspace_intersect(
            subspace_intersect(left, middle, A.dim), right, A.dim
        )
        assert subspace_eq(full, inter, A.dim)


def test_center_is_commuter_cap_nucleus(algebras):
    for name in ("H", "O"):
        A = algebras[name]
        expected = subspace_intersect(
            _span(A.commuter_basis()), _span(A.nucleus_basis("full")), A.dim
        )
        assert subspace_eq(_span(_center(A)), expected, A.dim)


def test_center_and_star_center(algebras):
    assert _span(_center(algebras["H"])) == [(1, 0, 0, 0)]
    assert _span(algebras["C"].z_star_basis()) == [(1, 0)]
    R = algebras["R"]
    assert _span(_center(R)) == [(1,)]


def test_c_star_of_complex(algebras):
    # conjugation fixes exactly the real line inside the (commutative) plane
    assert _span(algebras["C"]._solve(("commuter", "star_fixed"))) == [(1, 0)]


def test_full_spaces_for_commutative_and_associative(algebras):
    H, C = algebras["H"], algebras["C"]
    assert len(C.commuter_basis()) == C.dim
    for side in ("left", "middle", "right"):
        assert len(H.nucleus_basis(side)) == H.dim


def test_nucleus_side_validation(algebras):
    with pytest.raises(ValueError):
        algebras["H"].nucleus_basis("sideways")


# ------------------------------------------------------------------ predicates
def test_property_ladder(algebras):
    ladder = {
        "R": (True, True, True, True),
        "C": (True, True, True, True),
        "H": (False, True, True, True),
        "O": (False, False, True, True),
        "S": (False, False, False, True),
    }
    for name, (comm, assoc, alt, flex) in ladder.items():
        A = algebras[name]
        assert A.is_commutative() is comm, name
        assert A.is_associative() is assoc, name
        assert A.is_alternative() is alt, name
        assert A.is_flexible() is flex, name


def test_witnesses(algebras):
    H, S = algebras["H"], algebras["S"]
    x, y, c = H.commutativity_witness()
    assert H.mul(x, y) - H.mul(y, x) == c and not c.is_zero()
    assert H.associativity_witness() is None
    side, a, b, c, v = S.alternativity_witness()
    assert side in ("left", "right")
    assert not v.is_zero()
    assert S.flexibility_witness() is None


def test_predicates_agree_with_quadratic_sampling(algebras):
    """Linearized basis-exhaustive checks versus the quadratic identities sampled
    on random elements (1000 random elements per algebra)."""
    rng = random.Random(20240809)
    for name in ("O", "S"):
        A = algebras[name]
        flexible = A.is_flexible()
        alternative = A.is_alternative()
        quad_alt_violation = False
        for _ in range(500):
            a = rand_element(A, rng)
            b = rand_element(A, rng)
            if flexible:
                assert A.associator(a, b, a).is_zero()
            left = A.associator(a, a, b)
            right = A.associator(b, a, a)
            if alternative:
                assert left.is_zero() and right.is_zero()
            elif not left.is_zero() or not right.is_zero():
                quad_alt_violation = True
        if not alternative:
            # the linearized witness yields a concrete quadratic violation
            _, wa, wb, wc, _ = A.alternativity_witness()
            assert quad_alt_violation or not A.associator(wa + wb, wa + wb, wc).is_zero()


# ------------------------------------------------------------------ validation
# the split-complex plane: e0 is a two-sided unit and e1*e1 = e0
SPLIT_COMPLEX = [[[(0, 1)], [(1, 1)]], [[(1, 1)], [(0, 1)]]]


def test_structure_constants_unit_axiom():
    identity = linalg.LinearMap.identity(2)
    StarAlgebra([[[(0, 1)], [(1, 1)]], [[(1, 1)], [(1, 1)]]], identity)  # e1*e1 = e1
    unit_row = [[(0, 1)], [(1, 1)]]
    bad = [
        (ValueError, []),  # empty
        (ValueError, [unit_row, [[(1, 1)]]]),  # ragged
        (ValueError, [unit_row, [[(1, 1)], [(2, 1)]]]),  # index past dim - 1
        (ValueError, [unit_row, [[(1, 1)], [(-1, 1)]]]),  # negative index
        (ValueError, [unit_row, [[(1, 1)], [(0, 1), (0, 0)]]]),  # index repeated
        # commutative, so the identity is an involution, but e0 is not the unit
        (ValueError, [[[(0, 1)], []], [[], [(1, 1)]]]),  # Q x Q: e0*e1 = 0
        (ValueError, [[[(0, 1)], [(1, 2)]], [[(1, 2)], [(0, 1)]]]),  # e0*e1 = 2e1
        (TypeError, [unit_row, [[(1, 1)], [(0, 1.0)]]]),  # a float is not exact
    ]
    for error, table in bad:
        with pytest.raises(error):
            StarAlgebra(table, identity)


def test_table_is_stored_sparse_and_canonical():
    # zero coefficients are dropped, pairs sorted, whole Fractions and bools made ints
    noisy = [
        [[(1, 0), (0, Fraction(2, 2))], [(0, 0), (1, 1)]],
        [[(1, 1)], [(1, 0), (0, True)]],
    ]
    A = StarAlgebra(noisy, linalg.LinearMap.from_rows([[1, 0], [0, -1]]))
    assert A.table == ((((0, 1),), ((1, 1),)), (((1, 1),), ((0, 1),)))
    assert A.table == StarAlgebra(SPLIT_COMPLEX, A.involution).table
    assert all(type(c) is int for row in A.table for entry in row for _, c in entry)


def test_involution_axioms_enforced():
    # negation is not an involution of the split-complex plane: it moves the unit
    with pytest.raises(ValueError):
        StarAlgebra(SPLIT_COMPLEX, linalg.LinearMap.from_rows([[-1, 0], [0, -1]]))
    # transposition of coordinates is not multiplicative there either
    with pytest.raises(ValueError):
        StarAlgebra(SPLIT_COMPLEX, linalg.LinearMap.from_rows([[0, 1], [1, 0]]))
    # a star map of another dimension
    with pytest.raises(ValueError):
        StarAlgebra(SPLIT_COMPLEX, linalg.LinearMap.identity(3))
    # the star map is a LinearMap, not the rows of a matrix
    with pytest.raises(TypeError):
        StarAlgebra(SPLIT_COMPLEX, [[1, 0], [0, -1]])


def test_involution_must_be_anti_multiplicative():
    # on H, x -> u x* u^-1 with u = i + 2j is an involution with denominator 5;
    # x -> u x u^-1 also squares to the identity and fixes 1, but it is
    # multiplicative, and so are the identity and diag(1, -1, -1, 1)
    H = tower([-1, -1])
    one, i, j, k = H.basis()
    u = i + j.scaled(2)
    u_inv = u.scaled(Fraction(-1, 5))

    def map_of(f):
        cols = [f(e).coords for e in H.basis()]
        return linalg.LinearMap.from_rows([[col[r] for col in cols] for r in range(4)])

    twisted = map_of(lambda x: H.mul(H.mul(u, H.star(x)), u_inv))
    assert twisted.den == 5
    assert StarAlgebra(H.table, twisted).involution == twisted
    for star in (
        map_of(lambda x: H.mul(H.mul(u, x), u_inv)),
        linalg.LinearMap.identity(4),
        linalg.LinearMap.from_rows([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]),
    ):
        with pytest.raises(ValueError, match="anti-multiplicative"):
            StarAlgebra(H.table, star)


def test_involution_invariants_hold_on_towers():
    for n in range(6):  # up to dimension 32
        A = tower([-1] * n)
        m = A.involution.matrix
        assert mat_mul(m, m) == identity_matrix(A.dim)
        assert A.star(A.unit) == A.unit
        for a in A.basis():
            for b in A.basis():
                assert A.star(A.mul(a, b)) == A.mul(A.star(b), A.star(a))


# ------------------------------------------------------------------------- io
def test_json_round_trip(algebras):
    for name in ("C'", "H"):
        A = algebras[name]
        assert_json_is_algebra(json.loads(json.dumps(A.to_json_dict())), A)


def test_json_uses_fraction_strings():
    A = tower([Fraction(1, 2)])
    data = A.to_json_dict()
    assert data["table"][1][1] == ["1/2", "0"]
    assert_json_is_algebra(data, A)


# ------------------------------------------- sparse kernel against the mul route
def _first_nonzero(candidates):
    for candidate in candidates:
        if not candidate[-1].is_zero():
            return candidate
    return None


def _mul_route_witnesses(A):
    """The three basis-triple witnesses, through the public ``associator``."""
    e, r, assoc = A.basis(), range(A.dim), A.associator
    associative = _first_nonzero(
        (e[a], e[b], e[c], assoc(e[a], e[b], e[c])) for a in r for b in r for c in r
    )
    flexible = _first_nonzero(
        (e[i], e[j], e[k], assoc(e[i], e[j], e[k]) + assoc(e[k], e[j], e[i]))
        for i in r
        for k in r
        if k >= i
        for j in r
    )
    alternative = _first_nonzero(
        ("left", e[i], e[j], e[k], assoc(e[i], e[j], e[k]) + assoc(e[j], e[i], e[k]))
        for i in r
        for j in r
        if j >= i
        for k in r
    ) or _first_nonzero(
        ("right", e[i], e[j], e[k], assoc(e[i], e[j], e[k]) + assoc(e[i], e[k], e[j]))
        for i in r
        for j in r
        for k in r
        if k >= j
    )
    return associative, flexible, alternative


def _mul_route_nucleus_rows(A, side):
    e = A.basis()
    place = {
        "left": lambda x, b, c: (x, b, c),
        "middle": lambda x, b, c: (b, x, c),
        "right": lambda x, b, c: (b, c, x),
    }[side]
    return constraint_rows(
        A, [lambda x, b=b, c=c: A.associator(*place(x, b, c)) for b in e for c in e]
    )


def _kernel_cases(algebras):
    cases = list(algebras.items())
    cases += [
        ("tower(1/2, 3, -1)", tower([Fraction(1, 2), 3, -1])),
        ("tower(1, 1, 1)", tower([1, 1, 1])),
    ]
    return cases + exchange_algebras() + twisted_group_algebras()


def test_associator_kernel_matches_mul_route(algebras):
    cases = _kernel_cases(algebras)
    # the exchange algebras have table entries with several terms
    assert any(len(entry) > 1 for _, A in cases for row in A.table for entry in row)
    found = [0, 0, 0]
    for name, A in cases:
        expected = _mul_route_witnesses(A)
        got = (
            A.associativity_witness(),
            A.flexibility_witness(),
            A.alternativity_witness(),
        )
        assert got == expected, name
        for i, witness in enumerate(got):
            found[i] += witness is not None
            if witness is not None:
                assert isinstance(witness[-1], AlgebraElement), name
        for side in ("left", "middle", "right"):
            expected = linalg.row_space(_mul_route_nucleus_rows(A, side), A.dim)
            got = linalg.row_space(A._rows(f"nucleus_{side}"), A.dim)
            assert got == expected, (name, side)
    # the exchange algebras reach every non-None witness path
    assert all(found), found


def test_constraint_rows_transpose_and_drop_zero_and_repeated_rows(algebras):
    C = algebras["C"]
    blocks = [
        [[(0, 2), (1, 0)], [(0, 3)]],  # rows (2, 3) and a zero row
        [{1: 2, 0: 3}.items(), {0: 0}.items()],  # rows (2, 0) and (3, 0)
        [[(1, 2)], [(1, 3)]],  # (2, 3) again
    ]
    assert linalg.constraint_rows(blocks, C.dim) == ((2, 3), (2, 0), (3, 0))


# ------------------------------------- sign matrix against the general kernel
def _monomial_cases(algebras):
    """Monomial tables: R to O', towers with Fraction and with split signs, and
    the twisted group algebras, where every witness is reached."""
    cases = [(name, algebras[name]) for name in ("R", "C", "C'", "H", "H'", "O", "O'")]
    cases += [
        ("tower(1/2, 3, -1, 1)", tower([Fraction(1, 2), 3, -1, 1])),
        ("tower(1, 1, 1)", tower([1, 1, 1])),
    ]
    cases += twisted_group_algebras()
    assert all(A._signs() is not None for _, A in cases)
    return cases


def _slots(A, kind, x=None):
    rest = [range(A.dim)] * (IDENTITY_ARITY[kind] - 1)
    return product(range(A.dim) if x is None else (x,), *rest)


def test_sign_words_match_identity_at(algebras):
    for name, A in _monomial_cases(algebras):
        signs = A._signs()
        for kind in IDENTITIES:
            word = _SIGN_WORDS[kind]
            for slots in _slots(A, kind):
                value = word(signs, slots)
                got = {reduce(xor, slots): value} if value else {}
                want = {k: c for k, c in identity_at(A.table, kind, slots).items() if c}
                assert got == want, (name, kind, slots)


def _witnesses(A):
    return (
        A.commutativity_witness(),
        A.associativity_witness(),
        A.flexibility_witness(),
        A.alternativity_witness(),
    )


def _coordinate_types(witnesses):
    return [
        [type(c) for c in part.coords] if isinstance(part, AlgebraElement) else part
        for witness in witnesses
        for part in witness or ()
    ]


def test_witnesses_match_the_general_route(algebras, monkeypatch):
    cases = _monomial_cases(algebras)
    fast = [_witnesses(A) for _, A in cases]
    # every witness path, including a failing flexible law, is reached
    assert all(any(w[i] is not None for w in fast) for i in range(4))
    monkeypatch.setattr(StarAlgebra, "_signs", lambda self: None)
    for (name, A), got in zip(cases, fast):
        want = _witnesses(A)
        assert got == want, name
        assert _coordinate_types(got) == _coordinate_types(want), name


def test_vanishing_matches_the_full_walk(algebras):
    """``_vanishes_at`` (the sign walk, and the unit shortcut at e_0) against
    every identity_at value with x = e_a."""
    found_false_at_unit = set()
    for name, A in _monomial_cases(algebras):
        for kind in IDENTITIES:
            for a in range(A.dim):
                want = not any(
                    any(identity_at(A.table, kind, slots).values()) for slots in _slots(A, kind, a)
                )
                assert A._vanishes_at(kind, a) == want, (name, kind, a)
                if a == 0 and not want:
                    found_false_at_unit.add(kind)
    # the shortcut is taken only by words that cancel at the unit
    assert found_false_at_unit == set(IDENTITIES) - _UNIT_KINDS
    assert _UNIT_KINDS == {
        "commuter", "nucleus_left", "nucleus_middle", "nucleus_right",
        "flexible", "alternative_left", "alternative_right",
    }


def test_unit_kinds_vanish_at_the_unit_off_the_tower():
    cases = (
        matrix_algebras() + exchange_algebras() + sparse_exchange_algebras()
        + triangular_algebras()
    )
    for name, A in cases:
        assert A._signs() is None, name
        for kind in _UNIT_KINDS:
            assert not any(
                any(identity_at(A.table, kind, slots).values()) for slots in _slots(A, kind, 0)
            ), (name, kind)
