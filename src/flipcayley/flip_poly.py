"""Generalized polynomial rings with an optional flip on odd-degree right factors.

A ring here is the additive group of finitely supported coefficient
sequences over a star-algebra, with the monomial product driven by two
additive structure maps sigma and delta through the pi-function calculus:

    unflipped:  (a X^m)(b X^n) = sum_i (a * pi_i^m(b)) X^(i+n)
    flipped:    (a X^m)(b X^n) = sum_i tau_n(a, pi_i^m(b)) X^(i+n)

where tau_n multiplies in the given order for even n and in reversed order
for odd n.  pi_i^m is the sum of all compositions of i copies of sigma and
m-i copies of delta, so X^m b = sum_i pi_i^m(b) X^i.  A ring caches the
pi_i^m(e_j) as integer vectors per basis column j, each column only as deep
as a product asks; the combinatorial sum is the test oracle ``pi_oracle``.
A ring with a proven degree ``period`` p keeps levels below p only: every
reader takes level m mod p, raised and scaled.

``mul`` takes every product, whatever the operands' shape, through one
kernel and keeps none.  The kernel is exact and packs both factors by
Kronecker substitution along the degree axis, one slot of w bits per degree:
one integer per flip parity and basis column of the right factor, and one
per basis column and class of degrees mod p of the left factor, whose
degrees all read the class's one pi level.  A bound on every output
numerator, proven from the operands, sets w, so no slot overflows.  The
ring's one product cache, ``FlipPolyRing._basis``, holds basis-monomial
products, the kernel's for one period and raised past it;
``check_axioms`` and the oracles of ``structure_analysis`` read them through
``algebra_core.identity_at``.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .algebra_core import AlgebraElement, identity_at, zero_element
from .scalars import format_rational, parse_rational, simplify

ORACLE_DEGREE_LIMIT = 12
AXIOM_DEGREE_LIMIT = 8
AXIOM_FAMILIES = ("O", "N", "F")


class AdditiveMap(linalg.LinearMap):
    """Additive (so rational-linear) self-map of the coefficients: a ``LinearMap`` with a kind."""

    KINDS = ("sigma", "delta")
    __slots__ = ("kind",)

    def __init__(self, matrix, kind):
        """``matrix`` is a ``linalg.LinearMap`` or the rows of a square matrix."""
        if kind not in self.KINDS:
            raise ValueError("kind must be 'sigma' or 'delta'")
        if not isinstance(matrix, linalg.LinearMap):
            matrix = linalg.LinearMap.from_rows(matrix)
        super().__init__(matrix.dim, matrix.cols, matrix.den)
        self.kind = kind

    def __call__(self, elem):
        return AlgebraElement._trusted(self.apply(elem.coords))

    @classmethod
    def identity(cls, dim):
        return cls(linalg.LinearMap.identity(dim), "sigma")

    @classmethod
    def zero(cls, dim):
        return cls(linalg.LinearMap(dim, ((),) * dim), "delta")

    @classmethod
    def from_star(cls, algebra):
        return cls(algebra.involution, "sigma")


class Poly:
    """Finitely supported map degree -> coefficient; zeros are never stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        clean = {}
        for degree, coeff in items:
            if not isinstance(degree, int) or degree < 0:
                raise ValueError("degrees must be natural numbers")
            if degree in clean:
                raise ValueError("duplicate degree")
            if not coeff.is_zero():
                clean[degree] = coeff
        self.coeffs = dict(sorted(clean.items()))

    @classmethod
    def _trusted(cls, coeffs):
        """Wrap a dict that is already sorted by degree and free of zeros, unchecked."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def coeff(self, degree, dim):
        return self.coeffs.get(degree, zero_element(dim))

    def degree(self):
        return max(self.coeffs, default=-1)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        acc = dict(self.coeffs)
        for degree, coeff in other.coeffs.items():
            acc[degree] = acc[degree] + coeff if degree in acc else coeff
        return Poly(acc)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Poly({degree: -coeff for degree, coeff in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"


class _BasisProducts(dict):
    """Slot ``(m, i)`` -> slot ``(n, j)`` -> ``(e_i X^m)(e_j X^n)`` as sparse
    ``(((degree, k), coeff), ...)`` on first use, for ``algebra_core.identity_at``:
    ``FlipPolyRing._cleared_product``'s for m, n < p (for all m, n on a ring with
    no ``period`` p), else the entry at (m mod p, n mod p), each degree
    raised by (m - m mod p) + (n - n mod p)."""

    __slots__ = ("ring", "left")

    def __init__(self, ring, left=None):
        self.ring, self.left = ring, left

    def __missing__(self, slot):
        if self.left is None:
            value = self[slot] = _BasisProducts(self.ring, slot)
            return value
        (m, i), (n, j), p = self.left, slot, self.ring.period
        if p and (m >= p or n >= p):  # the entry one period back in each degree, raised
            base, shift = self.ring._basis[m % p, i][n % p, j], m - m % p + n - n % p
            value = self[slot] = tuple(((degree + shift, k), v) for (degree, k), v in base)
            return value
        rows, d = self.ring._cleared_product([(m, [(i, 1)])], [(n, [(j, 1)])], 1)
        value = self[slot] = tuple(
            ((degree, k), v if d == 1 else simplify(Fraction(v, d)))
            for degree, row in rows.items() for k, v in sorted(row.items())
        )
        return value


class FlipPolyRing:
    """Polynomial ring over a star-algebra, configured by (sigma, delta, flipped).

    ``period`` is the degree period of the products, proven once here, or
    None.  With delta zero, (e_i X^m)(e_j X^n) = tau_n(e_i, sigma^m(e_j))
    X^(m+n).  If sigma^k is the identity, a factor at degree m + p in place
    of m raises the product by p when k | p as a left factor (through
    sigma^m) and when 2 | p as a right factor under the flip (through tau_n):
    p is lcm(k, 2) on a flipped ring and k on an unflipped one, k the least
    order of sigma up to 12, checked exactly.  Up to dim 4, 12 is the largest
    finite order of a rational matrix; past it sigma may have a longer one (a
    permutation of e1..e15 over S with cycles of length 3, 5 and 7 has order
    105), and such a ring gets None.

    ``_columns[j][m]`` lists the pairs ``(i, v)`` of the nonzero pi_i^m(e_j),
    v its sparse integer numerators over ``_step[0] ** m``.  A column grows
    only as far as a product asks, by X (c X^k) = sigma(c) X^(k+1) +
    delta(c) X^k.  With a period p no reader asks for a level past p - 1:
    level m is level c = m mod p, each i raised by m - c and the numerators
    scaled by ``_step[0] ** (m - c)``.  Columns are published as longer
    tuples of complete levels, so rings can be shared across threads.  ``mul``
    clears each operand's denominators once and packs both by Kronecker
    substitution along the degrees, the left one per class of degrees mod p,
    each class reading one pi level (``_cleared_product``, which ``_basis``
    runs within one period).  Each product is a fresh ``Poly`` the caller may
    mutate.
    """

    __slots__ = (
        "coeff_algebra", "sigma", "delta", "flipped", "_table", "_t1", "_step", "_columns",
        "_basis", "_lock", "period",
    )

    def __init__(self, coeff_algebra, sigma, delta, flipped):
        if getattr(sigma, "kind", None) != "sigma" or getattr(delta, "kind", None) != "delta":
            raise ValueError("maps must be passed as (sigma, delta)")
        dim, unit = coeff_algebra.dim, coeff_algebra.unit
        if sigma.dim != dim or delta.dim != dim:
            raise ValueError("dimension mismatch")
        if sigma(unit) != unit:
            raise ValueError("sigma must map the unit to the unit")
        if not delta(unit).is_zero():
            raise ValueError("delta must map the unit to zero")
        self.coeff_algebra = coeff_algebra
        self.sigma, self.delta = sigma, delta
        self.flipped = bool(flipped)
        self._table = _integer_table(coeff_algebra)
        self._t1 = None  # the largest 1-norm of an entry of the integer table
        # (den, ((degree shift, columns, den / their denominator), ...)): sigma, a nonzero delta
        den = lcm(sigma.den, delta.den)
        maps = (1, sigma), (0, delta)
        self._step = den, tuple((k, f.cols, den // f.den) for k, f in maps if not f.is_zero())
        self._columns = [(((0, ((j, 1),)),),) for j in range(dim)]
        self._basis = _BasisProducts(self)
        self._lock = threading.Lock()  # held to publish a column
        self.period, power = None, sigma  # lcm(k, 2) or k, k the least order of sigma up to 12
        for k in range(1, 13) if delta.is_zero() else ():
            if power.is_identity():
                self.period = lcm(k, 2) if self.flipped else k
                break
            power = sigma.compose(power)

    # ------------------------------------------------------------------- kernels
    def _column(self, j, top):
        """Column j of the pi cache through level ``top``, grown by the recurrence as needed."""
        column = self._columns[j]
        if top < len(column):
            return column
        steps, dim, levels = self._step[1], len(self._columns), list(column)
        while len(levels) <= top:
            nxt = {}
            for i, vec in levels[-1]:
                for shift, cols, scale in steps:
                    out = nxt.setdefault(i + shift, [0] * dim)
                    for k, x in vec:
                        x *= scale
                        for t, c in cols[k]:
                            out[t] += c * x
            levels.append(tuple(
                (i, v) for i, out in sorted(nxt.items())
                if (v := tuple((t, c) for t, c in enumerate(out) if c))
            ))
        column = tuple(levels)
        with self._lock:  # another thread may have published a deeper column meanwhile
            if len(column) > len(self._columns[j]):
                self._columns[j] = column
        return column

    def pi_matrix(self, i, m):
        """pi_i^m as a ``linalg.LinearMap`` assembled from the columns; None when it is zero.
        With a ``period`` p it reads level c = m mod p at i - (m - c), over step^c."""
        if i < 0 or i > m:
            return None
        c, dim = m % self.period if self.period else m, len(self._columns)
        cols = tuple(dict(self._column(j, c)[c]).get(i - m + c, ()) for j in range(dim))
        return linalg.LinearMap(dim, cols, self._step[0] ** c) if any(cols) else None

    def pi_oracle(self, i, m, s):
        """pi_i^m(s) by explicit enumeration of all C(m, i) compositions."""
        if i < 0 or i > m:
            return self.coeff_algebra.zero()
        if m > ORACLE_DEGREE_LIMIT:
            raise ValueError(f"oracle enumeration is bounded at m <= {ORACLE_DEGREE_LIMIT}")
        total = self.coeff_algebra.zero()
        for sigma_slots in itertools.combinations(range(m), i):
            chosen = set(sigma_slots)
            value = s
            for position in range(m - 1, -1, -1):
                value = self.sigma(value) if position in chosen else self.delta(value)
            total = total + value
        return total

    def _cleared_product(self, left, right, den):
        """``(rows, d)`` for the product of the integer terms of ``_cleared``
        over the denominator ``den``: ``rows`` maps each output degree with a
        nonzero coefficient, ascending, to its nonzero numerators ``{k: x}`` over d.

        Both operands are packed along their degrees (Kronecker substitution):
        B[f, r] (``packed[f][r]``) sums y_(n,r) 2^(w (n - n0)) over the right
        terms of flip parity f, and L_c[r] (``lefts[r]``) sums step^(top-c)
        a_m[r] 2^(w (m - c)) over the left terms of class c = m mod p (c = m
        with no ``period`` p), as level m of a column is level c raised by
        m - c and scaled by step^(m-c).  Slot j holds degree n0 + i_lo + j,
        and each sum is one big-integer operation per (c, f, coordinate).  A
        product of one term by one term is not packed: each i of level
        c = top mod p is its own degree, raised by top - c, and d holds
        step^c in place of step^top.  Columns are read through the largest c.
        """
        table, dt = self._table
        top, step, p = left[-1][0], self._step[0], self.period
        if len(left) == 1 == len(right):  # each i of level c is its own degree: no packing
            (_, a), (n, b) = left[0], right[0]
            c = top % p if p else top  # level top is level c raised by top - c, over step^c
            f, rows, raised = self.flipped and n % 2, {}, top - c + n
            for j, y in b:
                for i, vec in self._column(j, c)[c]:
                    row = rows.setdefault(i + raised, {})
                    for s, v in vec:  # add v y a e_s, or v y e_s a under the flip
                        for r, x in a:
                            for k, t in table[s][r] if f else table[r][s]:
                                row[k] = row.get(k, 0) + v * y * (x * t)
            return {
                degree: kept for degree, row in sorted(rows.items())
                if (kept := {k: v for k, v in row.items() if v})
            }, den * dt * step ** c
        d, classes, a1 = den * dt * step ** top, {}, 0  # c -> the left terms a X^m, m = c mod p
        for term in left:
            classes.setdefault(c := term[0] % p if p else term[0], []).append(term)
            a1 += step ** (top - c) * sum(abs(x) for _, x in term[1])
        # r -> column r of the pi cache, held through the largest class
        cmax = max(classes)
        columns = {r: self._column(r, cmax) for r in {r for _, b in right for r, _ in b}}
        levels = [level for column in columns.values() for c in classes if (level := column[c])]
        if not levels:  # every pi image read is zero
            return {}, d
        i_lo, i_hi = min(level[0][0] for level in levels), max(level[-1][0] for level in levels)
        n0 = right[0][0]
        slots = i_hi - i_lo + right[-1][0] - n0 + max(t[-1][0] - c for c, t in classes.items()) + 1
        # A slot of the result sums, over the left terms a X^m of each class c
        # and the right entries y of each (r, n), the products step^(top-c) y
        # pi_i^c(e_r)[s] (a e_s)[k], with at most one i per (m, r, n) and slot.
        # So |slot| <= A1 B1 P T, with A1 the sum of step^(top-c) |a|_1, B1
        # the sum of |y|, P the largest |pi vector|_1 of the class levels read
        # and T the largest |table entry|_1, and w = bit_length(A1 B1 P T) + 1
        # keeps every slot in [-2^(w-1), 2^(w-1)), which the signed borrow
        # below reads back.
        b1 = sum(abs(y) for _, b in right for _, y in b)
        p1 = max(sum(abs(x) for _, x in vec) for level in levels for _, vec in level)
        if self._t1 is None:  # found on the ring's first product of several terms
            self._t1 = max(sum(abs(t) for _, t in entry) for row in table for entry in row)
        w = (a1 * b1 * p1 * self._t1).bit_length() + 1
        packed = {}  # flip -> r -> the right entries of column r, packed along n
        for n, b in right:
            part = packed.setdefault(self.flipped and n % 2 == 1, {})
            for r, y in b:
                part[r] = part.get(r, 0) + (y << w * (n - n0))
        acc = {}  # output coordinate -> packed numerators over step ** top
        for c, terms in classes.items():
            scale, lefts = step ** (top - c), {}  # r -> the class's entries packed along m - c
            for m, a in terms:
                for r, x in a:
                    lefts[r] = lefts.get(r, 0) + (x * scale << w * (m - c))
            for f, part in packed.items():
                sums = {}  # s -> packed sum of y pi_i^c(e_r)[s] over the right terms
                for r, y in part.items():
                    for i, vec in columns[r][c]:
                        y_i = y << w * (i - i_lo)
                        for s, x in vec:
                            sums[s] = sums.get(s, 0) + x * y_i
                for s, v in sums.items():
                    if v:  # add v L e_s, or v e_s L under the flip
                        for r, x in lefts.items():
                            for k, t in table[s][r] if f else table[r][s]:
                                acc[k] = acc.get(k, 0) + v * (x * t)
        rows = {}  # output degree -> {k: numerator}
        low, high = n0 + i_lo, n0 + i_lo + slots - 1  # the degrees of the first and last slot
        mask, half = (1 << w) - 1, 1 << w >> 1
        for k, v in acc.items():
            for degree in range(low, high):
                c = v & mask
                v >>= w
                if c & half:  # a negative slot borrowed one from the next
                    c -= mask + 1
                    v += 1
                if c:
                    rows.setdefault(degree, {})[k] = c
            if v:
                rows.setdefault(high, {})[k] = v
        return dict(sorted(rows.items())), d

    def monomial_product(self, m, a, n, b):
        """(a X^m)(b X^n) as a dict degree -> coefficient."""
        return self.mul(Poly({m: a}), Poly({n: b})).coeffs

    def mul(self, p, q):
        dim = self.coeff_algebra.dim
        dp, left = _cleared(p.coeffs, dim)
        dq, right = _cleared(q.coeffs, dim)
        if not (left and right):
            return Poly._trusted({})
        rows, d = self._cleared_product(left, right, dp * dq)
        coeffs = {}
        for degree, row in rows.items():
            out = [0] * dim
            for k, x in row.items():
                out[k] = x
            coeffs[degree] = AlgebraElement._trusted(
                tuple(out) if d == 1 else tuple(simplify(Fraction(x, d)) for x in out)
            )
        return Poly._trusted(coeffs)


def _cleared(coeffs, dim):
    """``(d, [(degree, [(index, int)])])``: the coefficients times one common
    denominator d, as sparse integer vectors, in the ascending degree order of
    a ``Poly``; a length other than ``dim`` raises ``ValueError``."""
    den, terms = 0, []  # den stays 0 while every entry is an int
    for degree, c in coeffs.items():
        if len(c.coords) != dim:
            raise ValueError(f"coefficient has {len(c.coords)} coordinates, expected {dim}")
        pairs = [(r, x) for r, x in enumerate(c.coords) if x]
        for _, x in pairs:
            if type(x) is not int:
                den = lcm(den or 1, x.denominator)
        terms.append((degree, pairs))
    if not den:
        return 1, terms
    return den, [
        (degree, [(r, x * den if type(x) is int else den // x.denominator * x.numerator)
                  for r, x in pairs])
        for degree, pairs in terms
    ]


def _integer_table(algebra):
    """``(table, d)``: d times the algebra's table, with int entries;
    an integral table is the algebra's own."""
    table = algebra.table
    den = lcm(1, *(
        t.denominator for row in table for entry in row for _, t in entry if type(t) is not int
    ))
    if den == 1:
        return table, 1
    return tuple(
        tuple(tuple((k, int(t * den)) for k, t in entry) for entry in row) for row in table
    ), den


def star_skew_ring(algebra):
    """The flipped ring with sigma equal to the involution and delta zero."""
    dim = algebra.dim
    return FlipPolyRing(
        algebra, AdditiveMap.from_star(algebra), AdditiveMap.zero(dim), flipped=True
    )


def ordinary_ring(algebra):
    """The plain polynomial ring: sigma the identity, delta zero, no flip."""
    dim = algebra.dim
    return FlipPolyRing(algebra, AdditiveMap.identity(dim), AdditiveMap.zero(dim), flipped=False)


# ------------------------------------------------------------------ axiom checks
@dataclass
class AxiomReport:
    """Counts of checked and failed identities; ``first`` is the first
    failure's ``(axiom, witness text)``, or None."""

    family: str
    degree_bound: int
    checked: int
    failed: int
    first: tuple[str, str] | None

    @property
    def passed(self):
        return not self.failed

    def summary(self):
        head = f"family {self.family}, bound {self.degree_bound}: {self.checked} identities checked"
        if self.passed:
            return head + ", all hold"
        axiom, witness = self.first
        return head + f", {self.failed} failed; first: [{axiom}] {witness}"


def check_axioms(ring, family, degree_bound):
    """Exhaustively test one axiom family on basis coefficients up to the bound.

    Families: "O" (generator reduction plus an associativity sample over all
    monomial triples), "N" (same generator axioms plus vanishing associators
    with the generator in the middle or right slot), "F" (the recursive
    product identities of the flipped rings).  The associators are the
    ``nucleus_*`` words of ``algebra_core.IDENTITIES``; every product is read
    from the ring's cached basis-monomial products.  Only the first failure's
    witness is rendered, so the report's size does not grow with the bound.

    ``*1``, ``*2`` and ``F3a`` restate the pi recurrence that defines
    ``FlipPolyRing.mul``, so on a ``FlipPolyRing`` only ``F3b``, ``N3`` and
    ``O3`` can fail; they stay as self-checks of the product kernel.  With a
    ``period`` p, past p they check the kernel's one period against the
    period lemma: F3a at m = p - 1 compares a raised entry with in-period sums.
    """
    if family not in AXIOM_FAMILIES:
        raise ValueError(f"family must be one of {AXIOM_FAMILIES}")
    if not 0 <= degree_bound <= AXIOM_DEGREE_LIMIT:
        raise ValueError(f"degree_bound must be between 0 and {AXIOM_DEGREE_LIMIT}")
    checked = failed = 0
    first = None
    for axiom, ok, witness in _axiom_checks(ring, family, degree_bound):
        checked += 1
        if not ok:
            failed += 1
            first = first or (axiom, witness())
    return AxiomReport(family, degree_bound, checked, failed, first)


def _axiom_checks(ring, family, degree_bound):
    """Yield ``(axiom, ok, witness)`` for each identity of the family, in report order.

    Every ring product is read from the basis-monomial table ``ring._basis``
    as sparse ``((degree, k), coeff)`` terms, the slot of e_i X^d being
    ``(d, i)``.  ``witness`` renders the failure text, with a ``Poly`` built
    only there, from the values bound when the check is yielded, so a caller
    renders only the witnesses it reads.  ``*1``, ``*2`` and ``F3a`` restate
    the pi recurrence and hold on every ``FlipPolyRing``.
    """
    algebra, table = ring.coeff_algebra, ring._basis
    dim, basis = algebra.dim, algebra.basis()
    degrees, indices = range(degree_bound + 1), range(dim)
    x = (1, 0)  # the generator X = e_0 X^1
    # column j of sigma and of delta: the (k, entry) of sigma(e_j), delta(e_j)
    sigma, delta = (
        [[(k, simplify(Fraction(v, f.den))) for k, v in col] for col in f.cols]
        for f in (ring.sigma, ring.delta)
    )

    def text(terms):  # sparse terms as a Poly's text, zero coefficients dropped
        coeffs = {}
        for (degree, k), v in dict(terms).items():
            coeffs.setdefault(degree, {})[k] = v
        return poly_to_text(Poly({
            d: AlgebraElement([c.get(k, 0) for k in indices]) for d, c in coeffs.items()
        }))

    # power basis: (r X^m) X = r X^(m+1)
    for m, i in itertools.product(degrees, indices):
        lhs = table[m, i][x]
        yield f"{family}1", lhs == (((m + 1, i), 1),), lambda m=m, i=i, lhs=lhs: (
            f"(rX^{m})X != rX^{m + 1} for r={basis[i].coords}: got {text(lhs)}"
        )
    # generator reduction: X r = sigma(r) X + delta(r)
    for i in indices:
        lhs = table[x][0, i]
        rhs = {(0, k): v for k, v in delta[i]} | {(1, k): v for k, v in sigma[i]}
        yield f"{family}2", dict(lhs) == rhs, lambda i=i, lhs=lhs, rhs=rhs: (
            f"Xr != sigma(r)X + delta(r) for r={basis[i].coords}: "
            f"{text(lhs)} vs {text(rhs)}"
        )
    if family == "F":
        # (r X^(m+1))(s X^n) = ((r X^m)(sigma(s) X^n)) X + (r X^m)(delta(s) X^n)
        for m, n, i, j in itertools.product(degrees, degrees, indices, indices):
            lhs, row, rhs = table[m + 1, i][n, j], table[m, i], {}
            for k, v in sigma[j]:
                for slot, c in row[n, k]:
                    for key, t in table[slot][x]:
                        rhs[key] = rhs.get(key, 0) + v * c * t
            for k, v in delta[j]:
                for key, c in row[n, k]:
                    rhs[key] = rhs.get(key, 0) + v * c
            rhs = {key: v for key, v in rhs.items() if v}
            yield "F3a", dict(lhs) == rhs, lambda m=m, n=n, i=i, j=j, lhs=lhs, rhs=rhs: (
                f"m={m} n={n} r={basis[i].coords} s={basis[j].coords}: "
                f"{text(lhs)} vs {text(rhs)}"
            )
        # r (s X^n) = tau_n(r, s) X^n
        for n, i, j in itertools.product(degrees, indices, indices):
            lhs = table[0, i][n, j]
            entry = algebra.table[j][i] if n % 2 else algebra.table[i][j]
            rhs = tuple(((n, k), c) for k, c in entry)
            yield "F3b", lhs == rhs, lambda n=n, i=i, j=j, lhs=lhs, rhs=rhs: (
                f"n={n} r={basis[i].coords} s={basis[j].coords}: {text(lhs)} vs {text(rhs)}"
            )
    elif family == "N":
        # (X, p, q) in nucleus_right is (p, q, X); in nucleus_middle, (p, X, q)
        words = {"right": "bX^{j}, cX^{k}, X", "middle": "bX^{j}, X, cX^{k}"}
        for j, k, b, c, side, v in generator_associators(ring, words, degree_bound):
            yield "N3", not any(v.values()), lambda j=j, k=k, b=b, c=c, w=words[side], v=v: (
                f"({w.format(j=j, k=k)}) != 0 for b={basis[b].coords} c={basis[c].coords}: "
                f"{text(v)}"
            )
    else:  # "O": associativity sampled over all bounded monomial triples
        for i, j, k, a, b, c in itertools.product(
            degrees, degrees, degrees, indices, indices, indices
        ):
            value = identity_at(table, "nucleus_left", ((i, a), (j, b), (k, c)))
            yield "O3", not any(value.values()), lambda i=i, j=j, k=k, a=a, b=b, c=c, v=value: (
                f"(aX^{i}, bX^{j}, cX^{k}) != 0 for a={basis[a].coords} b={basis[b].coords} "
                f"c={basis[c].coords}: {text(v)}"
            )


def generator_associators(ring, sides, degree_bound):
    """Yield ``(j, k, b, c, side, value)``, value the ``nucleus_<side>`` word at
    (X, e_b X^j, e_c X^k) on ``ring._basis`` for j, k <= degree_bound, sides
    innermost: the generator-nucleus brute force of family N and of ``x_in_nucleus_bruteforce``."""
    x, degrees, indices = (1, 0), range(degree_bound + 1), range(ring.coeff_algebra.dim)
    for j, k, b, c, side in itertools.product(degrees, degrees, indices, indices, sides):
        yield j, k, b, c, side, identity_at(ring._basis, f"nucleus_{side}", (x, (j, b), (k, c)))


# --------------------------------------------------------------------- text forms
def poly_to_text(p):
    """Render as ``[c0,...] + [c0,...]*X + [c0,...]*X^k``."""
    if p.is_zero():
        return "0"
    parts = []
    for degree, coeff in p.coeffs.items():
        vec = "[" + ",".join(format_rational(c) for c in coeff.coords) + "]"
        if degree == 0:
            parts.append(vec)
        elif degree == 1:
            parts.append(vec + "*X")
        else:
            parts.append(f"{vec}*X^{degree}")
    return " + ".join(parts)


_SIGN = re.compile(r"\s*([+-]?)\s*")
_POLY_TERM = re.compile(r"\[([^\[\]]*)\](\s*\*\s*X(?:\^([0-9]+))?)?|0")


def signed_terms(text, term):
    """Scan ``[sign] term (sign term)...`` into ``(sign, groups)`` pairs.

    ``term`` is a compiled regex matched at each position; a sign is ``+`` or
    ``-``, optional before the first term only, and whitespace may surround
    it.  Anything else, an empty literal included, raises ``ValueError``.
    """
    pairs = []
    pos = 0
    while True:
        sign = _SIGN.match(text, pos)
        if pairs and not sign.group(1):
            if sign.end() < len(text):
                raise ValueError(f"expected + or - before {text[sign.end():]!r}")
            return pairs
        match = term.match(text, sign.end())
        if match is None:
            raise ValueError(f"cannot parse term {text[sign.end():]!r}")
        pairs.append((-1 if sign.group(1) == "-" else 1, match.groups()))
        pos = match.end()


def parse_poly(text, dim):
    """Parse ``poly_to_text``'s form: signed terms ``[c0,...]``, ``[c0,...]*X``,
    ``[c0,...]*X^k`` (ASCII digits) and ``0``."""
    total = Poly()
    for sign, (vector, x, power) in signed_terms(text, _POLY_TERM):
        if vector is None:  # the term 0
            continue
        coords = [sign * parse_rational(c) for c in vector.split(",")]
        if len(coords) != dim:
            raise ValueError(f"coefficient vector must have length {dim}")
        degree = int(power) if power else (1 if x else 0)
        total = total + Poly({degree: AlgebraElement(coords)})
    return total


def poly_to_json(p):
    """JSON mirror: a {degree: coords} map with scalar strings."""
    return {
        str(degree): [format_rational(c) for c in coeff.coords]
        for degree, coeff in p.coeffs.items()
    }
