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

``mul`` takes every product, whatever the operands' shape, through one
kernel and keeps none.  The ring's one product cache,
``FlipPolyRing._basis``, holds basis-monomial products;
``FlipPolyRing._identity`` and ``check_axioms`` read every product from it,
and ``check_axioms`` reads its associators from ``algebra_core.IDENTITIES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .algebra_core import AlgebraElement, identity_at, zero_element
from .scalars import format_rational, parse_rational, simplify

ORACLE_DEGREE_LIMIT = 12
AXIOM_DEGREE_LIMIT = 8
AXIOM_FAMILIES = ("O", "N", "F")


class AdditiveMap:
    """Additive (hence rational-linear) self-map of the coefficient algebra."""

    KINDS = ("sigma", "delta")
    __slots__ = ("linear", "kind")

    def __init__(self, matrix, kind):
        """``matrix`` is a ``linalg.LinearMap`` or the rows of a square matrix."""
        if kind not in self.KINDS:
            raise ValueError("kind must be 'sigma' or 'delta'")
        if not isinstance(matrix, linalg.LinearMap):
            matrix = linalg.LinearMap.from_rows(matrix)
        self.linear = matrix
        self.kind = kind

    @property
    def matrix(self):
        return self.linear.matrix

    def __call__(self, elem):
        return AlgebraElement._trusted(self.linear.apply(elem.coords))

    def check_unit_constraint(self, algebra):
        image = self(algebra.unit)
        if self.kind == "sigma" and image != algebra.unit:
            raise ValueError("sigma must map the unit to the unit")
        if self.kind == "delta" and not image.is_zero():
            raise ValueError("delta must map the unit to zero")

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
    ``(((degree, k), coeff), ...)``, each computed by ``FlipPolyRing._cleared_product``
    on first use: a ring's table for ``algebra_core.identity_at``."""

    __slots__ = ("ring", "left")

    def __init__(self, ring, left=None):
        self.ring, self.left = ring, left

    def __missing__(self, slot):
        if self.left is None:
            value = self[slot] = _BasisProducts(self.ring, slot)
            return value
        (m, i), (n, j) = self.left, slot
        terms = self.ring._cleared_product([(m, [(i, 1)])], [(n, [(j, 1)])], 1).items()
        value = self[slot] = tuple(
            ((d, k), v) for d, c in terms for k, v in enumerate(c.coords) if v
        )
        return value


class FlipPolyRing:
    """Polynomial ring over a star-algebra, configured by (sigma, delta, flipped).

    ``_columns[j][m]`` lists the pairs ``(i, v)`` of the nonzero pi_i^m(e_j),
    v its sparse integer numerators over ``_step[0] ** m``.  A column grows
    only as far as a product asks, by X (c X^k) = sigma(c) X^(k+1) +
    delta(c) X^k, and is published as a longer tuple of complete levels, so
    rings can be shared across threads.  ``mul`` clears each operand's
    denominators once; for each left term a X^m it sums the right operand's
    pi images into one integer vector per output degree and flip parity,
    multiplies it by a (through the columns a e_s or e_s a when a has
    several terms) and divides once per output coordinate.  Each product is a
    fresh ``Poly`` that the caller may mutate.
    """

    __slots__ = (
        "coeff_algebra", "sigma", "delta", "flipped", "_table", "_step", "_columns", "_basis",
    )

    def __init__(self, coeff_algebra, sigma, delta, flipped):
        if sigma.kind != "sigma" or delta.kind != "delta":
            raise ValueError("maps must be passed as (sigma, delta)")
        dim = coeff_algebra.dim
        if sigma.linear.dim != dim or delta.linear.dim != dim:
            raise ValueError("dimension mismatch")
        sigma.check_unit_constraint(coeff_algebra)
        delta.check_unit_constraint(coeff_algebra)
        self.coeff_algebra = coeff_algebra
        self.sigma, self.delta = sigma, delta
        self.flipped = bool(flipped)
        self._table = _integer_table(coeff_algebra)
        # (den, ((degree shift, columns, den / their denominator), ...)): sigma, a nonzero delta
        den = lcm(sigma.linear.den, delta.linear.den)
        maps = (1, sigma.linear), (0, delta.linear)
        self._step = den, tuple((k, f.cols, den // f.den) for k, f in maps if not f.is_zero())
        self._columns = [(((0, ((j, 1),)),),) for j in range(dim)]
        self._basis = _BasisProducts(self)

    def x(self):
        return Poly({1: self.coeff_algebra.unit})

    # ------------------------------------------------------------------- kernels
    def _column(self, j, top):
        """Column j of the pi cache through level ``top``, extending it as needed."""
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
        column = self._columns[j] = tuple(levels)
        return column

    def pi_matrix(self, i, m):
        """pi_i^m as a ``linalg.LinearMap`` assembled from the columns; None when it is zero."""
        if i < 0 or i > m:
            return None
        dim = len(self._columns)
        cols = tuple(dict(self._column(j, m)[m]).get(i, ()) for j in range(dim))
        return linalg.LinearMap(dim, cols, self._step[0] ** m) if any(cols) else None

    def pi(self, i, m, s):
        """pi_i^m(s) read from the columns."""
        pmap = self.pi_matrix(i, m)
        return self.coeff_algebra.zero() if pmap is None else AlgebraElement(pmap.apply(s.coords))

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
        """The product of the integer terms of ``_cleared`` over the denominator
        ``den``, as a ``{degree: coefficient}`` dict, sorted and zero-free."""
        table, dt = self._table
        dim = len(table)
        top, step = max(left)[0], self._step[0]
        columns = self._columns
        acc = {}  # output degree -> integer numerators over step ** top
        for m, a in left:
            sums = {}  # (output degree, flip) -> sum of y pi_i^m(e_r) over the right terms
            for n, b in right:
                flip = self.flipped and n % 2 == 1
                for r, y in b:
                    column = columns[r]
                    if len(column) <= m:
                        column = self._column(r, m)
                    for i, vec in column[m]:
                        out = sums.get((i + n, flip))
                        if out is None:
                            out = sums[i + n, flip] = [0] * dim
                        for k, x in vec:
                            out[k] += x * y
            scale = step ** (top - m)
            one = len(a) == 1  # then a e_s = x e_r e_s: a table entry, x in the scale
            if one:
                ((r0, x0),) = a
                scale *= x0
            products = {}  # (s, flip) -> a e_s, or e_s a under the flip, for a of several terms
            for (d, flip), total in sums.items():
                v = [(s, y * scale) for s, y in enumerate(total) if y]
                out = acc.setdefault(d, [0] * dim)
                for s, ys in v:
                    if one:
                        col = table[s][r0] if flip else table[r0][s]
                    else:
                        col = products.get((s, flip))
                        if col is None:
                            col = products[s, flip] = _times_basis(table, a, s, flip)
                    for k, t in col:
                        out[k] += ys * t
        d = den * dt * step ** top
        result = {}
        for k, out in sorted(acc.items()):
            if any(out):
                result[k] = AlgebraElement._trusted(
                    tuple(out) if d == 1
                    else tuple(x // d for x in out) if gcd(d, *out) == d  # integral
                    else tuple(simplify(Fraction(x, d)) for x in out)
                )
        return result

    def _identity(self, kind, slots):
        """The identity ``kind`` at the monomials e_i X^d of the ``(d, i)`` slots
        for x, b, c, as ``{(degree, k): coeff}`` (zero coefficients may remain)."""
        return identity_at(self._basis, kind, slots)

    def monomial_product(self, m, a, n, b):
        """(a X^m)(b X^n) as a dict degree -> coefficient."""
        return self.mul(Poly({m: a}), Poly({n: b})).coeffs

    def mul(self, p, q):
        dp, left = _cleared(p.coeffs, self.coeff_algebra.dim)
        dq, right = _cleared(q.coeffs, self.coeff_algebra.dim)
        return Poly._trusted(self._cleared_product(left, right, dp * dq) if left and right else {})


def _cleared(coeffs, dim):
    """``(d, [(degree, [(index, int)])])``: the coefficients times one common
    denominator d, as sparse integer vectors; a length other than ``dim`` raises ``ValueError``."""
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
    return den, [(degree, [(r, int(x * den)) for r, x in pairs]) for degree, pairs in terms]


def _times_basis(table, a, s, flip):
    """a e_s, or e_s a when ``flip``, for the sparse integer vector a, as sparse pairs."""
    out = [0] * len(table)
    for r, x in a:
        for k, t in table[s][r] if flip else table[r][s]:
            out[k] += x * t
    return tuple((k, c) for k, c in enumerate(out) if c)


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
class AxiomFailure:
    axiom: str
    witness: str


@dataclass
class AxiomReport:
    family: str
    degree_bound: int
    checked: int = 0
    failures: list[AxiomFailure] = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        head = f"family {self.family}, bound {self.degree_bound}: {self.checked} identities checked"
        if self.passed:
            return head + ", all hold"
        first = self.failures[0]
        return head + f", {len(self.failures)} failed; first: [{first.axiom}] {first.witness}"


def check_axioms(ring, family, degree_bound):
    """Exhaustively test one axiom family on basis coefficients up to the bound.

    Families: "O" (generator reduction plus an associativity sample over all
    monomial triples), "N" (same generator axioms plus vanishing associators
    with the generator in the middle or right slot), "F" (the recursive
    product identities of the flipped rings).  The associators are the
    ``nucleus_*`` words of ``algebra_core.IDENTITIES``; every product is read
    from the ring's cached basis-monomial products.
    """
    if family not in AXIOM_FAMILIES:
        raise ValueError(f"family must be one of {AXIOM_FAMILIES}")
    if not 0 <= degree_bound <= AXIOM_DEGREE_LIMIT:
        raise ValueError(f"degree_bound must be between 0 and {AXIOM_DEGREE_LIMIT}")
    report = AxiomReport(family, degree_bound)
    for axiom, ok, witness in _axiom_checks(ring, family, degree_bound):
        report.checked += 1
        if not ok:
            report.failures.append(AxiomFailure(axiom, witness()))
    return report


def _axiom_checks(ring, family, degree_bound):
    """Yield ``(axiom, ok, witness)`` for each identity of the family, in report order.

    Every ring product is read from the basis-monomial table ``ring._basis``
    as sparse ``((degree, k), coeff)`` terms, the slot of e_i X^d being
    ``(d, i)``; a ``Poly`` is built only to render a failure.  ``witness()``
    renders the failure text from the generator's current values, so it must
    be called before the next check is drawn.
    """
    algebra, table = ring.coeff_algebra, ring._basis
    dim, basis = algebra.dim, algebra.basis()
    degrees, indices = range(degree_bound + 1), range(dim)
    x = (1, 0)  # the generator X = e_0 X^1
    # column j of sigma and of delta: the (k, entry) of sigma(e_j), delta(e_j)
    sigma, delta = (
        [[(k, simplify(Fraction(v, f.den))) for k, v in col] for col in f.cols]
        for f in (ring.sigma.linear, ring.delta.linear)
    )

    def text(terms):  # sparse terms as a Poly's text, zero coefficients dropped
        coeffs = {}
        for (degree, k), v in dict(terms).items():
            if v:
                coeffs.setdefault(degree, [0] * dim)[k] = v
        return poly_to_text(Poly({d: AlgebraElement(c) for d, c in coeffs.items()}))

    # power basis: (r X^m) X = r X^(m+1)
    for m, i in itertools.product(degrees, indices):
        lhs = table[m, i][x]
        yield f"{family}1", lhs == (((m + 1, i), 1),), lambda: (
            f"(rX^{m})X != rX^{m + 1} for r={basis[i].coords}: got {text(lhs)}"
        )
    # generator reduction: X r = sigma(r) X + delta(r)
    for i in indices:
        lhs = table[x][0, i]
        rhs = {(0, k): v for k, v in delta[i]} | {(1, k): v for k, v in sigma[i]}
        yield f"{family}2", dict(lhs) == rhs, lambda: (
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
            yield "F3a", dict(lhs) == rhs, lambda: (
                f"m={m} n={n} r={basis[i].coords} s={basis[j].coords}: "
                f"{text(lhs)} vs {text(rhs)}"
            )
        # r (s X^n) = tau_n(r, s) X^n
        for n, i, j in itertools.product(degrees, indices, indices):
            lhs = table[0, i][n, j]
            entry = algebra.table[j][i] if n % 2 else algebra.table[i][j]
            rhs = tuple(((n, k), c) for k, c in entry)
            yield "F3b", lhs == rhs, lambda: (
                f"n={n} r={basis[i].coords} s={basis[j].coords}: {text(lhs)} vs {text(rhs)}"
            )
    elif family == "N":
        # (X, p, q) in nucleus_right is (p, q, X); in nucleus_middle, (p, X, q)
        for j, k, b, c in itertools.product(degrees, degrees, indices, indices):
            for kind, word in (("right", f"bX^{j}, cX^{k}, X"), ("middle", f"bX^{j}, X, cX^{k}")):
                value = ring._identity(f"nucleus_{kind}", (x, (j, b), (k, c)))
                yield "N3", not any(value.values()), lambda: (
                    f"({word}) != 0 for b={basis[b].coords} c={basis[c].coords}: {text(value)}"
                )
    else:  # "O": associativity sampled over all bounded monomial triples
        for i, j, k, a, b, c in itertools.product(
            degrees, degrees, degrees, indices, indices, indices
        ):
            value = ring._identity("nucleus_left", ((i, a), (j, b), (k, c)))
            yield "O3", not any(value.values()), lambda: (
                f"(aX^{i}, bX^{j}, cX^{k}) != 0 for a={basis[a].coords} b={basis[b].coords} "
                f"c={basis[c].coords}: {text(value)}"
            )


# ------------------------------------------------------------------------ grading
def even_square_ring(ring):
    """The ring the even layer multiplies in: maps squared, no flip.

    The parity grading (``quotient_iso.psi_inv``) requires
    sigma*delta + delta*sigma = 0, trivially true for delta = 0.
    """
    sigma, delta = ring.sigma.linear, ring.delta.linear
    if not (sigma.compose(delta) + delta.compose(sigma)).is_zero():
        raise ValueError("grading requires sigma*delta + delta*sigma = 0")
    return FlipPolyRing(
        ring.coeff_algebra,
        AdditiveMap(sigma.compose(sigma), "sigma"),
        AdditiveMap(delta.compose(delta), "delta"),
        flipped=False,
    )


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


def split_signed_terms(text):
    """Split a literal at the top-level signs into ``(sign, body)`` pairs.

    Brackets nest, so signs inside a coordinate vector stay in its term.  An
    empty literal or unbalanced brackets raise ``ValueError``.
    """
    terms = []
    current = ""
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets")
        if ch in "+-" and depth == 0 and current.strip():
            terms.append(current.strip())
            current = ch
        else:
            current += ch
    if depth != 0:
        raise ValueError("unbalanced brackets")
    if current.strip():
        terms.append(current.strip())
    if not terms:
        raise ValueError("empty literal")
    pairs = []
    for term in terms:
        if term[0] in "+-":
            pairs.append((-1 if term[0] == "-" else 1, term[1:].strip()))
        else:
            pairs.append((1, term))
    return pairs


def parse_poly(text, dim):
    """Parse the textual polynomial form; coefficients are bracketed vectors."""
    acc = {}
    for sign, term in split_signed_terms(text):
        if term == "0":
            continue
        if not term.startswith("["):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        close = term.index("]")
        inner = term[1:close]
        coords = [parse_rational(c) for c in inner.split(",")] if inner.strip() else []
        if len(coords) != dim:
            raise ValueError(f"coefficient vector must have length {dim}")
        rest = term[close + 1:].strip()
        if not rest:
            degree = 0
        else:
            if not rest.startswith("*"):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            rest = rest[1:].strip()
            if rest == "X":
                degree = 1
            elif rest.startswith("X^"):
                degree = int(rest[2:])
            else:
                raise ValueError(f"cannot parse polynomial term {term!r}")
        coeff = AlgebraElement(coords)
        if sign < 0:
            coeff = -coeff
        acc[degree] = acc[degree] + coeff if degree in acc else coeff
    return Poly(acc)


def poly_to_json(p):
    """JSON mirror: a {degree: coords} map with scalar strings."""
    return {
        str(degree): [format_rational(c) for c in coeff.coords]
        for degree, coeff in p.coeffs.items()
    }
