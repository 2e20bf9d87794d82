"""Exact linear algebra over the rationals.

Vectors and matrix rows are dense sequences of ints or Fractions.  Division
only ever happens through ``Fraction``, so every result is exact.  The
canonical representative of a subspace is the reduced row echelon basis of
its span; two subspaces are equal iff their canonical bases are equal tuples.
``RowReducer`` keeps that basis as sparse tails after each pivot, with
integral entries kept as ``int``, answers membership in the span, and
rejects rows whose length is not its column count with ``ValueError``;
``span`` returns one that holds the given vectors.  ``constraint_rows`` is
the one constraint-row builder.  ``LinearMap`` is the one sparse type for
linear self-maps (an algebra's star map, a ring's ``pi_matrix``, sigma and
delta as ``flip_poly.AdditiveMap``): integer columns over one denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import simplify


class LinearMap:
    """Linear self-map of Q^n as sparse integer columns over one common denominator.

    ``cols[j]`` lists the pairs ``(i, c)`` with ``c != 0``, where ``c / den``
    is the matrix entry in row i, column j.  The form is canonical: ``den``
    is positive and its gcd with all entries is 1, so two maps are equal
    exactly when their ``(cols, den)`` are.  Instances are immutable.
    """

    __slots__ = ("dim", "cols", "den")

    def __init__(self, dim, cols, den=1):
        if den != 1:
            g = gcd(den, *(c for col in cols for _, c in col))
            if g > 1:
                cols = tuple(tuple((i, c // g) for i, c in col) for col in cols)
                den //= g
        self.dim = dim
        self.cols = cols
        self.den = den

    @staticmethod
    def from_rows(matrix):
        """The map of a square matrix given as rows of ints or Fractions."""
        rows = tuple(tuple(simplify(c) for c in row) for row in matrix)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        den = lcm(1, *(c.denominator for row in rows for c in row if type(c) is not int))
        return LinearMap(
            n,
            tuple(
                tuple((i, int(rows[i][j] * den)) for i in range(n) if rows[i][j])
                for j in range(n)
            ),
            den,
        )

    @classmethod
    def identity(cls, n):
        return cls(n, tuple(((j, 1),) for j in range(n)))

    @property
    def matrix(self):
        """Read-only dense view: rows of ints and Fractions."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for j, col in enumerate(self.cols):
            for i, c in col:
                rows[i][j] = simplify(Fraction(c, self.den))
        return tuple(tuple(row) for row in rows)

    def is_zero(self):
        return not any(self.cols)

    def is_identity(self):
        return self == LinearMap.identity(self.dim)

    def apply(self, vector):
        """The exact image of a coordinate vector of length ``dim``."""
        if len(vector) != self.dim:
            raise ValueError(f"vector has {len(vector)} entries, expected {self.dim}")
        out = [0] * self.dim
        for x, col in zip(vector, self.cols):
            if x:
                for i, c in col:
                    out[i] += c * x
        if self.den == 1:
            return tuple(out)
        return tuple(simplify(Fraction(x, self.den)) for x in out)

    def compose(self, inner):
        """The map ``self o inner`` (apply ``inner`` first)."""
        cols = []
        for pairs in inner.cols:
            out = {}
            for j, x in pairs:
                for i, c in self.cols[j]:
                    out[i] = out.get(i, 0) + c * x
            cols.append(tuple(sorted((i, c) for i, c in out.items() if c)))
        return LinearMap(self.dim, tuple(cols), self.den * inner.den)

    def __eq__(self, other):
        if isinstance(other, LinearMap):
            return self.cols == other.cols and self.den == other.den
        return NotImplemented


def mat_vec(matrix, vector):
    out = []
    for row in matrix:
        acc = 0
        for a, x in zip(row, vector):
            if a and x:
                acc += a * x
        out.append(acc)
    return tuple(out)


class RowReducer:
    """Incremental accumulator keeping a reduced row echelon basis of its input rows.

    Each reduced row is stored as its pivot column plus a sparse tail
    ``{column: value}`` holding the nonzero entries after the pivot; the
    pivot entry is 1 and is not stored.  Tail entries go through
    ``simplify`` when a row is stored, so integral values stay ``int``.
    Reduction walks only the nonzero entries of the input and of the tails.
    Every row passed in must have exactly ``ncols`` entries; any other
    length raises ``ValueError``.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._tails = {}  # pivot column -> tail; the basis is fully reduced

    def _remainder(self, vector):
        if len(vector) != self.ncols:
            raise ValueError(f"row has {len(vector)} entries, expected {self.ncols}")
        work = {j: x for j, x in enumerate(vector) if x}
        # No tail touches a pivot column, so each pivot entry of the input is
        # final and the rows can be subtracted in any order.
        for p in [j for j in work if j in self._tails]:
            c = work.pop(p)
            for j, t in self._tails[p].items():
                x = work.get(j, 0) - c * t
                if x:
                    work[j] = x
                else:
                    del work[j]
        return work

    def contains(self, vector):
        return not self._remainder(vector)

    def add(self, vector):
        """Absorb a row.  Returns True when it increased the rank."""
        work = self._remainder(vector)
        if not work:
            return False
        pivot = min(work)
        inv = Fraction(1) / work.pop(pivot)
        new = {j: simplify(x * inv) for j, x in work.items()}
        for tail in self._tails.values():
            c = tail.pop(pivot, 0)
            if c:
                for j, t in new.items():
                    x = simplify(tail.get(j, 0) - c * t)
                    if x:
                        tail[j] = x
                    else:
                        del tail[j]
        self._tails[pivot] = new
        return True

    def rows(self):
        out = []
        for p in sorted(self._tails):
            row = [0] * self.ncols
            row[p] = 1
            for j, t in self._tails[p].items():
                row[j] = t
            out.append(tuple(row))
        return tuple(out)

    def nullspace(self):
        """Canonical basis of the solution space of (all added rows) * x = 0."""
        vectors = []
        for free in range(self.ncols):
            if free in self._tails:
                continue
            v = [0] * self.ncols
            v[free] = 1
            for p, tail in self._tails.items():
                v[p] = -tail.get(free, 0)
            vectors.append(v)
        return row_space(vectors, self.ncols)


def span(vectors, ncols):
    """A ``RowReducer`` holding the span of the given vectors."""
    red = RowReducer(ncols)
    for v in vectors:
        red.add(v)
    return red


def row_space(vectors, ncols):
    """Canonical (reduced echelon) basis of the span of the given vectors."""
    return span(vectors, ncols).rows()


def nullspace(rows, ncols):
    return span(rows, ncols).nullspace()


def constraint_rows(blocks, ncols):
    """The distinct nonzero rows of stacked linear maps, given sparsely.

    Each block lists the images of the ``ncols`` unknowns under one linear
    map, each image as ``(r, v)`` pairs (zero ``v`` allowed).  Its rows are
    the transposed ``{x: v}``; zero rows and rows seen before are dropped,
    and only the survivors are made dense, in first-seen order.
    """
    rows = {}  # sparse row -> None: an ordered set
    for images in blocks:
        block = {}
        for x, image in enumerate(images):
            for r, v in image:
                if v:
                    block.setdefault(r, []).append((x, v))
        rows.update(dict.fromkeys(tuple(row) for row in block.values()))
    return tuple(tuple(entries.get(x, 0) for x in range(ncols)) for entries in map(dict, rows))
