"""Finite-dimensional unital algebras with involution, given by a sparse
structure-constant table with unit e_0.

Everything is exact over the rationals.  Additive self-maps of a
finite-dimensional rational vector space are automatically linear, so the
structural subsets (commuter, one-sided nuclei, nucleus, center, and their
star-fixed parts) are nullspaces of commutator/associator constraint maps and
are computed by exact elimination.  Returned bases are in reduced row echelon
form, the canonical subspace representative used throughout the package.

Every multilinear identity behind these sets and the property predicates is
written once, in ``IDENTITIES``, as signed bracketed words.  One sparse
kernel, ``identity_at``, evaluates them from a table of basis products: the
algebra's ``table``, for the constraint rows and the predicates, or a ring's
basis monomial products, for the brute-force oracles of ``structure_analysis``
and for ``flip_poly.check_axioms``; ``identity_rows`` makes its constraint
rows on either table, and ``StarAlgebra._nullspace`` solves them, each kind
cached as its reduced row space alone.  The tests compare the kernel with
dense rows built from the public ``mul``/``associator``.

A Cayley-Dickson tower is monomial: e_i e_j = g(i, j) e_(i xor j), g nonzero,
with a diagonal star (a twisted group algebra of (Z/2)^n).  There every
constraint row has one nonzero entry, so ``StarAlgebra._solve`` decides each
basis element on its own; other algebras go through elimination, its oracle.
On such a table each identity at (x, b, c) is one scalar times
e_(x xor b xor c), a signed sum of products g(p, q) g(p xor q, r); each word
of ``IDENTITIES`` is compiled once into that sum.  The predicate walks and
the per-element vanishing tests read it from the algebra's cached sign
matrix (None off such tables); ``identity_at`` stays the general kernel and
their oracle, and builds each witness's value.  ``cayley_double`` seeds the
double's matrix: ``StarAlgebra._from_signs`` builds it, checked on the signs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import partial
from itertools import product

from . import linalg
from .scalars import format_rational, simplify

NUCLEUS_SIDES = ("left", "middle", "right", "full")
_NUCLEI = ("nucleus_left", "nucleus_middle", "nucleus_right")
# Signed bracketed words in an unknown x and basis elements b, c.  A row kind
# asks its identity to hold for all b, c; a predicate asks it for all x, b, c.
IDENTITIES = {
    "commuter": "xb - bx",
    "nucleus_left": "(xb)c - x(bc)",
    "nucleus_middle": "(bx)c - b(xc)",
    "nucleus_right": "(bc)x - b(cx)",
    "swap_right": "(xb)c - x(cb)",
    "outer_twist": "(bc)x - c(bx)",
    "exchange_right": "(xb)c - (xc)b",
    "exchange_left": "b(cx) - c(bx)",
    "kill_commutators": "x(bc) - x(cb)",
    # the linearized flexible and alternative laws (valid in characteristic 0)
    "flexible": "(xb)c - x(bc) + (cb)x - c(bx)",
    "alternative_left": "(xb)c - x(bc) + (bx)c - b(xc)",
    "alternative_right": "(xb)c - x(bc) + (xc)b - x(cb)",
}
_LETTERS = "xbc"


def _parse_identity(text):
    """Terms ``(positive, p, q, r, inner_left)`` of signed words ``(pq)r``, ``r(pq)``
    or ``pq``: slots p and q are multiplied first, then that product by slot r
    (if any), on the right if ``inner_left`` and on the left otherwise."""
    terms = []
    for sign, word in re.findall(r"([+-]?)\s*([^\s+-]+)", text):
        slots = [_LETTERS.index(ch) for ch in word if ch not in "()"]
        if word.startswith("("):
            (p, q, r), inner_left = slots, True
        elif word.endswith(")"):
            (r, p, q), inner_left = slots, False
        else:
            (p, q), r, inner_left = slots, None, True
        terms.append((sign != "-", p, q, r, inner_left))
    return tuple(terms)


_TERMS = {kind: _parse_identity(text) for kind, text in IDENTITIES.items()}
# the number of letters (x, then b and perhaps c) of each identity
IDENTITY_ARITY = {kind: len(set(text) & set(_LETTERS)) for kind, text in IDENTITIES.items()}


def _sign_word(kind):
    """The parsed word compiled to ``f(g, slots)``: its coefficient at the basis
    slots (x, b, c) on a monomial table with sign matrix g, where each term
    lands on the xor of the slots and (pq)r contributes g(p, q) g(p xor q, r)."""
    products = []
    for positive, p, q, r, inner_left in _TERMS[kind]:
        p, q = _LETTERS[p], _LETTERS[q]
        word = f"g[{p}][{q}]"
        if r is not None:
            r = _LETTERS[r]
            word += f" * g[{p} ^ {q}][{r}]" if inner_left else f" * g[{r}][{p} ^ {q}]"
        products.append(("+ " if positive else "- ") + word)
    letters = ", ".join(_LETTERS[: IDENTITY_ARITY[kind]])
    namespace = {}
    exec(
        f"def {kind}(g, slots):\n    {letters} = slots\n"
        f"    return {' '.join(products).removeprefix('+ ')}",
        namespace,
    )
    return namespace[kind]


def _cancels_at_unit(terms):
    """Whether the terms cancel formally once the unit fills slot x: each term
    is then the product of its other letters in their order."""
    counts = {}
    for positive, p, q, r, inner_left in terms:
        rest = tuple(s for s in ((p, q, r) if inner_left else (r, p, q)) if s not in (0, None))
        counts[rest] = counts.get(rest, 0) + (1 if positive else -1)
    return not any(counts.values())


_SIGN_WORDS = {kind: _sign_word(kind) for kind in IDENTITIES}
# the identities that hold at x = e_0 in every unital algebra
_UNIT_KINDS = frozenset(kind for kind, terms in _TERMS.items() if _cancels_at_unit(terms))


def identity_at(table, kind, slots):
    """The identity ``kind`` at basis slots (x, b, c), as a sparse ``{k: coeff}``
    (zero coefficients may remain).  ``table[p][q]`` lists the ``(k, coeff)``
    of the product of slots p and q; every k is a slot again."""
    out = {}
    for positive, p, q, r, inner_left in _TERMS[kind]:
        for m, s in table[slots[p]][slots[q]]:
            if r is None:
                products = ((m, 1),)
            elif inner_left:
                products = table[m][slots[r]]
            else:
                products = table[slots[r]][m]
            if positive:
                for k, t in products:
                    out[k] = out.get(k, 0) + s * t
            else:
                for k, t in products:
                    out[k] = out.get(k, 0) - s * t
    return out


def identity_rows(table, kind, xs, others):
    """The distinct nonzero rows of the identity ``kind`` on an unknown x with
    one column per slot of ``xs``: one block per tuple of slots of ``others``
    for b (and c)."""
    blocks = (
        [identity_at(table, kind, (x,) + rest).items() for x in xs]
        for rest in product(others, repeat=IDENTITY_ARITY[kind] - 1)
    )
    return linalg.constraint_rows(blocks, len(xs))


class AlgebraElement:
    """Immutable coordinate vector relative to the parent algebra's basis."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(coords)
        if not {int, Fraction}.issuperset(map(type, coords)):
            coords = tuple(map(simplify, coords))  # a float raises TypeError
        self.coords = coords

    @classmethod
    def _trusted(cls, coords):
        """Wrap a tuple of ints and Fractions, unchecked (for exact results)."""
        elem = object.__new__(cls)
        elem.coords = coords
        return elem

    def __add__(self, other):
        return AlgebraElement._trusted(
            tuple(a + b for a, b in zip(self.coords, other.coords, strict=True))
        )

    def __sub__(self, other):
        return AlgebraElement._trusted(
            tuple(a - b for a, b in zip(self.coords, other.coords, strict=True))
        )

    def __neg__(self):
        return AlgebraElement._trusted(tuple(-a for a in self.coords))

    def scaled(self, scalar):
        return AlgebraElement(scalar * a for a in self.coords)

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"AlgebraElement({list(self.coords)!r})"


def zero_element(dim):
    return AlgebraElement._trusted((0,) * dim)


def basis_element(dim, index):
    return AlgebraElement._trusted(tuple(1 if i == index else 0 for i in range(dim)))


class StarAlgebra:
    """A sparse structure-constant table plus an involution (a
    ``linalg.LinearMap`` on coordinate columns); the workhorse algebra object.

    ``table[i][j]`` lists the ``(k, c)`` pairs of e_i e_j = sum c e_k.  The
    constructor accepts zero ``c`` and stores the canonical form: pairs
    sorted by k, zeros dropped, scalars through ``simplify``.  e_0 must be a
    two-sided unit.  Instances are immutable once constructed.  Derived data
    (subspace bases, property flags) is memoized; a duplicated computation
    under concurrent access is harmless because all values are value-equal.
    """

    __slots__ = ("table", "involution", "_cache")

    def __init__(self, table, involution):
        n = len(table)
        if not n or any(len(row) != n for row in table):
            raise ValueError("the table must be a nonempty square")
        rows = []
        for i, row in enumerate(table):
            entries = []
            for j, entry in enumerate(row):
                coeffs = {}
                for k, c in entry:
                    if type(k) is not int or not 0 <= k < n:
                        raise ValueError(f"index {k!r} out of range in e{i}*e{j}")
                    if k in coeffs:
                        raise ValueError(f"index {k} repeated in e{i}*e{j}")
                    coeffs[k] = simplify(c)
                entries.append(tuple(sorted((k, c) for k, c in coeffs.items() if c)))
            rows.append(tuple(entries))
        self.table = tuple(rows)
        for j in range(n):
            if self.table[0][j] != ((j, 1),) or self.table[j][0] != ((j, 1),):
                raise ValueError(f"unit axiom fails: e0 is not a two-sided unit at e{j}")
        if not isinstance(involution, linalg.LinearMap):
            raise TypeError("the involution must be a linalg.LinearMap")
        if involution.dim != n:
            raise ValueError("involution dimension mismatch")
        self.involution = involution
        self._cache = {}
        self._check_involution()

    @classmethod
    def _from_signs(cls, signs, star_signs):
        """e_i e_j = signs[i][j] e_(i xor j) and e_j* = star_signs[j] e_j, from
        nonzero canonical signs of power-of-two size (for ``cayley_double``):
        the constructor's checks and messages, run on the signs, which it caches."""
        n = len(signs)
        for j in range(n):
            if signs[0][j] != 1 or signs[j][0] != 1:
                raise ValueError(f"unit axiom fails: e0 is not a two-sided unit at e{j}")
        if any(s * s != 1 for s in star_signs):
            raise ValueError("involution must square to the identity")
        if star_signs[0] != 1:
            raise ValueError("involution must fix the unit")
        for i, (row, col) in enumerate(zip(signs, zip(*signs))):  # (e_i e_j)* = e_j* e_i*
            lhs = [g * star_signs[i ^ j] for j, g in enumerate(row)]
            if lhs != [star_signs[i] * s * h for s, h in zip(star_signs, col)]:
                raise ValueError("involution must be anti-multiplicative")
        algebra = object.__new__(cls)
        algebra.table = tuple(
            tuple(((i ^ j, g),) for j, g in enumerate(row)) for i, row in enumerate(signs)
        )
        algebra.involution = linalg.LinearMap(n, tuple(((j, s),) for j, s in enumerate(star_signs)))
        algebra._cache = {"signs": signs}
        return algebra

    # ------------------------------------------------------------------ basics
    @property
    def dim(self):
        return len(self.table)

    @property
    def unit(self):
        return basis_element(self.dim, 0)

    def basis(self):
        return [basis_element(self.dim, i) for i in range(self.dim)]

    def element(self, coords):
        coords = tuple(simplify(c) for c in coords)
        if len(coords) != self.dim:
            raise ValueError("dimension mismatch")
        return AlgebraElement(coords)

    def zero(self):
        return zero_element(self.dim)

    def cached(self, key, compute):
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    # -------------------------------------------------------------- arithmetic
    def mul(self, x, y):
        n = self.dim
        if len(x.coords) != n or len(y.coords) != n:
            raise ValueError("dimension mismatch")
        out = [0] * n
        table = self.table
        for i, xi in enumerate(x.coords):
            if not xi:
                continue
            row = table[i]
            for j, yj in enumerate(y.coords):
                if not yj:
                    continue
                c = xi * yj
                for k, t in row[j]:
                    out[k] += c * t
        return AlgebraElement._trusted(tuple(out))

    def star(self, x):
        return AlgebraElement._trusted(self.involution.apply(x.coords))

    def associator(self, x, y, z):
        return self.mul(self.mul(x, y), z) - self.mul(x, self.mul(y, z))

    def _check_involution(self):
        star = self.involution
        if not star.compose(star).is_identity():
            raise ValueError("involution must square to the identity")
        if self.star(self.unit) != self.unit:
            raise ValueError("involution must fix the unit")
        table, cols, den = self.table, star.cols, star.den
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                diff = {}  # den^2 ((e_i e_j)* - e_j* e_i*), sparsely
                for k, c in entry:
                    for r, s in cols[k]:
                        diff[r] = diff.get(r, 0) + den * c * s
                for (p, s), (q, t) in product(cols[j], cols[i]):
                    for r, c in table[p][q]:
                        diff[r] = diff.get(r, 0) - s * t * c
                if any(diff.values()):
                    raise ValueError("involution must be anti-multiplicative")

    def _witness(self, kind, index_tuples):
        """The basis elements at the first indices where the identity ``kind``
        fails, followed by its value there; None if it never fails.  On a
        monomial table the walk reads the sign matrix, and ``identity_at``
        builds the value at the first failing indices alone."""
        signs = self._signs()
        if signs is not None:
            index_tuples = filter(partial(_SIGN_WORDS[kind], signs), index_tuples)
        for indices in index_tuples:
            v = identity_at(self.table, kind, indices)
            if any(v.values()):
                value = AlgebraElement(v.get(k, 0) for k in range(self.dim))
                return tuple(basis_element(self.dim, i) for i in indices) + (value,)
        return None

    # ------------------------------------------------------ predicate witnesses
    def commutativity_witness(self):
        n = self.dim
        return self._witness("commuter", ((i, j) for i in range(n) for j in range(i + 1, n)))

    def associativity_witness(self):
        return self._witness("nucleus_left", product(range(self.dim), repeat=3))

    def flexibility_witness(self):
        """First basis triple violating the linearized flexible law (char-0 valid)."""
        n = self.dim
        return self._witness(
            "flexible", ((i, j, k) for i in range(n) for k in range(i, n) for j in range(n))
        )

    def alternativity_witness(self):
        """First basis triple violating a linearized alternative law (char-0 valid)."""
        n = self.dim
        left = ((i, j, k) for i in range(n) for j in range(i, n) for k in range(n))
        right = ((i, j, k) for i in range(n) for j in range(n) for k in range(j, n))
        for side, index_tuples in (("left", left), ("right", right)):
            witness = self._witness(f"alternative_{side}", index_tuples)
            if witness is not None:
                return (side,) + witness
        return None

    def is_commutative(self):
        return self.cached("commutative", lambda: self.commutativity_witness() is None)

    def is_associative(self):
        return self.cached("associative", lambda: self.associativity_witness() is None)

    def is_flexible(self):
        return self.cached("flexible", lambda: self.flexibility_witness() is None)

    def is_alternative(self):
        return self.cached("alternative", lambda: self.alternativity_witness() is None)

    # ------------------------------------------------------ structural subspaces
    def _rows(self, kind):
        """The distinct constraint rows of one kind on an unknown x.

        The kinds of ``IDENTITIES``: that identity holds for all basis
        elements b (and c); among them ``kill_commutators``, x(bc) - x(cb),
        which by bilinearity is x w = 0 for every w in the span of the
        commutators.  ``star_fixed``: x* = x; ``kill_star_skew``: x w = 0
        for w in a basis of the span of the b* - b, the same condition as
        x(b* - b) = 0 for every b since the product is bilinear.
        """
        n = self.dim
        basis = self.basis()

        def images(f):
            return [enumerate(f(e).coords) for e in basis]

        if kind in IDENTITIES:
            return identity_rows(self.table, kind, range(n), range(n))
        if kind == "star_fixed":
            blocks = [images(lambda x: self.star(x) - x)]
        elif kind == "kill_star_skew":
            span = linalg.row_space([(self.star(b) - b).coords for b in basis], n)
            blocks = (images(lambda x, w=AlgebraElement(w): self.mul(x, w)) for w in span)
        else:
            raise ValueError(f"unknown constraint kind {kind!r}")
        return linalg.constraint_rows(blocks, n)

    def _signs(self):
        """The sign matrix g with e_i e_j = g[i][j] e_(i xor j), g nonzero, when
        the table is monomial and each e_j* is +-e_j, as in every Cayley-Dickson
        tower; None otherwise."""

        def build():
            den, cols = self.involution.den, self.involution.cols
            if all(
                len(entry) == 1 and entry[0][0] == i ^ j
                for i, row in enumerate(self.table) for j, entry in enumerate(row)
            ) and all(col in (((j, den),), ((j, -den),)) for j, col in enumerate(cols)):
                return tuple(tuple(entry[0][1] for entry in row) for row in self.table)
            return None

        return self.cached("signs", build)

    def _vanishes_at(self, kind, a):
        """Whether every row of ``_rows(kind)`` vanishes at e_a, on a monomial
        algebra, where no product of basis elements is zero.  An identity
        whose word cancels formally at the unit holds at e_0 unwalked."""
        if kind in IDENTITIES:
            if a == 0 and kind in _UNIT_KINDS:
                return True
            slots = product((a,), *[range(self.dim)] * (IDENTITY_ARITY[kind] - 1))
            return not any(map(partial(_SIGN_WORDS[kind], self._signs()), slots))
        if kind == "star_fixed":
            return self.involution.cols[a] == ((a, self.involution.den),)
        if kind == "kill_star_skew":  # each b* - b is 0 or -2b
            return self.involution.is_identity()
        raise ValueError(f"unknown constraint kind {kind!r}")

    def _solve(self, kinds):
        """Basis of the elements meeting every row kind in ``kinds``, cached by the tuple.

        On a monomial algebra each constraint map sends e_a to a multiple of
        one basis element, a different one for each a (e_(a xor b xor c) for
        an identity at (b, c)), so every row has one nonzero entry: the
        solutions are spanned by the e_a at which every row vanishes, whose
        ascending tuple is already the reduced echelon basis (each kind is
        tested at e_a once, for every tuple).  Otherwise each kind enters as
        its cached reduced row space (at most dim rows).
        """

        def build():
            if self._signs() is not None:
                return tuple(
                    basis_element(self.dim, a)
                    for a in range(self.dim)
                    if all(
                        self.cached(("vanishes", kind, a), lambda: self._vanishes_at(kind, a))
                        for kind in kinds
                    )
                )
            return self._nullspace(kinds, self._rows)

        return self.cached(("solve", kinds), build)

    def _nullspace(self, keys, rows):
        """Basis of the elements that every row of ``rows(key)`` kills, for each
        key; each key enters as its cached reduced row space (at most dim rows)."""
        stacked = []
        for key in keys:
            stacked.extend(self.cached(
                ("row_space", key), lambda: linalg.row_space(rows(key), self.dim)
            ))
        return tuple(AlgebraElement(v) for v in linalg.nullspace(stacked, self.dim))

    def commuter_basis(self):
        return self._solve(("commuter",))

    def nucleus_basis(self, side="full"):
        if side not in NUCLEUS_SIDES:
            raise ValueError(f"side must be one of {NUCLEUS_SIDES}")
        return self._solve(_NUCLEI if side == "full" else (f"nucleus_{side}",))

    def z_star_basis(self):
        return self._solve(("commuter",) + _NUCLEI + ("star_fixed",))

    # ------------------------------------------------------------------------ io
    def to_json_dict(self):
        """The dense table and star matrix in ``p/q`` strings; the unit is e_0."""
        n = self.dim

        def dense(entry):
            coords = ["0"] * n
            for k, c in entry:
                coords[k] = format_rational(c)
            return coords

        return {
            "dim": n,
            "unit_index": 0,
            "table": [[dense(entry) for entry in row] for row in self.table],
            "star": [
                [format_rational(c) for c in row] for row in self.involution.matrix
            ],
        }
