"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite checks one structural statement end to end.  It is a generator
that yields one report line per case checked and raises ``SuiteFailure``
with the witness at its first counterexample; ``run_suite`` alone turns
that into a ``SuiteResult``, which keeps the lines yielded before the
failure and renders PASS or FAIL.  A suite's parameters are the options it
reads (``SUITE_OPTIONS``).  Suites are deterministic: the same inputs always
produce a byte-identical report.  The ``axioms`` suite reads every ring
product from the rings' tables of basis-monomial products (``FlipPolyRing._basis``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from itertools import product

from . import structure_analysis as sa
from .cayley_dickson import cayley_double, named, tower
from .flip_poly import FlipPolyRing, Poly, check_axioms, poly_to_text, star_skew_ring
from .quotient_iso import (
    QuotientRing,
    cayley_t_mul,
    cayley_t_star,
    psi,
    psi_inv,
)
from .involutions import alpha

THM1_ALGEBRAS = ("R", "C", "C'", "H", "H'")
THM2_ALGEBRAS = ("C", "H")
PROPS_ALGEBRAS = ("R", "C", "C'", "H", "H'", "O")
CENTERS_ALGEBRAS = ("R", "C", "H", "O")


@dataclass
class SuiteResult:
    name: str
    tag: str
    lines: list = field(default_factory=list)
    failure: str | None = None

    @property
    def passed(self):
        return self.failure is None

    def render(self):
        out = [f"suite {self.name} [{self.tag}]"]
        out.extend("  " + line for line in self.lines)
        if self.passed:
            out.append("  result: PASS")
        else:
            out.append(f"  result: FAIL - {self.failure}")
        return out


class SuiteFailure(Exception):
    """A suite's first counterexample; the message is its witness."""


def _algebra_set(names, restrict):
    chosen = [restrict] if restrict else list(names)
    return [(name, named(name)) for name in chosen]


def suite_thm1(algebra=None, mu=None):
    """Quotient by X^2 - mu versus the doubled algebra, as star-algebras."""
    mus = [mu] if mu is not None else [-1, 1]
    for name, A in _algebra_set(THM1_ALGEBRAS, algebra):
        for m in mus:
            quotient = QuotientRing(A, m)
            double = cayley_double(A, m)
            basis = double.basis()
            for u, v in product(basis, repeat=2):
                if quotient.mul(u, v) != double.mul(u, v):
                    raise SuiteFailure(
                        f"{name}, mu={m}: products differ on ({u.coords}, {v.coords})"
                    )
            for u in basis:
                if quotient.star(u) != double.star(u):
                    raise SuiteFailure(f"{name}, mu={m}: stars differ on {u.coords}")
            yield (
                f"{name}, mu={m}: {len(basis)}x{len(basis)} products and "
                f"{len(basis)} stars agree"
            )


def _pair_monomials(algebra, tdeg):
    """The pairs (e t^d, 0) and (0, e t^d), d <= tdeg, each with its image under psi."""
    monomials = (Poly({d: e}) for d in range(tdeg + 1) for e in algebra.basis())
    return [(u, psi(algebra, u)) for mono in monomials for u in ((mono, Poly()), (Poly(), mono))]


def suite_thm2(algebra=None):
    """The flipped ring as the double of the polynomial algebra in t."""
    tdeg = 2
    for name, A in _algebra_set(THM2_ALGEBRAS, algebra):
        ring = star_skew_ring(A)
        gens = _pair_monomials(A, tdeg)
        for (u, psi_u), (v, psi_v) in product(gens, repeat=2):
            lhs = psi(A, cayley_t_mul(A, u, v))
            rhs = ring.mul(psi_u, psi_v)
            if lhs != rhs:
                raise SuiteFailure(
                    f"{name}: psi not multiplicative on "
                    f"({';'.join(map(poly_to_text, u))}) x "
                    f"({';'.join(map(poly_to_text, v))}): "
                    f"{poly_to_text(lhs)} vs {poly_to_text(rhs)}"
                )
        for u, psi_u in gens:
            if psi(A, cayley_t_star(A, u)) != alpha(ring, psi_u):
                raise SuiteFailure(f"{name}: psi not star-compatible")
            if psi_inv(A, psi_u) != u:
                raise SuiteFailure(f"{name}: psi_inv o psi differs from the identity")
        yield (
            f"{name}: multiplicative on {len(gens)}^2 generator pairs, "
            f"star-compatible, inverse round-trips"
        )


def suite_props(algebra=None, mu=None):
    """Inheritance criteria against direct evaluation on the quotient algebras."""
    mus = [mu] if mu is not None else [-1, 1]
    for name, A in _algebra_set(PROPS_ALGEBRAS, algebra):
        ring = A.cached("star_skew_ring", lambda: star_skew_ring(A))  # the quotients' ring
        commutative = sa.b_commutative_criterion(A)
        associative = sa.ring_is_associative_criterion(ring)
        flexible = sa.b_flexible_criterion(A)
        alternative = sa.b_alternative_criterion(A)
        alpha_trivial = sa.alpha_trivial_criterion(A)
        for m in mus:
            quotient = QuotientRing(A, m)
            try:
                quotient_algebra = quotient.to_star_algebra()
            except ValueError as error:
                raise SuiteFailure(f"{name}, mu={m}: the quotient is not a star-algebra: {error}")
            checks = (
                ("commutative", commutative, quotient_algebra.is_commutative()),
                ("associative", associative, quotient_algebra.is_associative()),
                ("flexible", flexible, quotient_algebra.is_flexible()),
                ("alternative", alternative, quotient_algebra.is_alternative()),
                (
                    "trivial involution",
                    alpha_trivial,
                    quotient_algebra.involution.is_identity(),
                ),
            )
            for label, predicted, actual in checks:
                if predicted != actual:
                    raise SuiteFailure(
                        f"{name}, mu={m}: criterion says {label}={predicted} "
                        f"but the quotient has {label}={actual}"
                    )
        flags = "".join(
            "T" if f else "F"
            for f in (commutative, associative, alternative, flexible)
        )
        checked = "both quotients" if mu is None else f"the mu={mu} quotient"
        yield f"{name}: (comm, assoc, alt, flex) = {flags}, matches {checked}"


def suite_centers(algebra=None, bound=None):
    """Degreewise structural sets: criteria versus the brute-force oracle."""
    b = min(bound if bound is not None else 4, sa.BRUTE_BOUND_LIMIT)
    for name, A in _algebra_set(CENTERS_ALGEBRAS, algebra):
        dims = {}
        for kind in sa.SET_KINDS:
            predicted = sa.degreewise_set(A, kind, b)
            try:
                brute = sa.degreewise_set_bruteforce(A, kind, b)
            except ValueError as error:  # the one-sided systems disagree
                raise SuiteFailure(f"{name}, {kind}: {error}")
            if predicted != brute:
                raise SuiteFailure(
                    f"{name}, {kind}: criteria dims {predicted.dims()} vs "
                    f"brute-force dims {brute.dims()}"
                )
            dims[kind] = predicted.dims()
        summary = ", ".join(
            f"{kind}={list(dims[kind].values())}" for kind in sa.SET_KINDS
        )
        yield f"{name} (bound {b}): {summary}"


def suite_corollary(bound=None):
    """Commuter/center/nucleus patterns along the -1 doubling tower."""
    b = bound if bound is not None else 6
    for n in range(5):
        A = tower([-1] * n)
        commuter = sa.degreewise_set(A, "commuter", b)
        center = sa.degreewise_set(A, "center", b)
        z_star = sa.z_star_of_b(A, b)
        nucleus = sa.degreewise_set(A, "nucleus", b)
        if commuter.per_degree != center.per_degree:
            raise SuiteFailure(f"tower n={n}: commuter and center differ")
        for i in range(b + 1):
            c_dim = len(center.per_degree[i])
            zs_dim = len(z_star.per_degree[i])
            n_dim = len(nucleus.per_degree[i])
            want_c = 1 if (n == 0 or i % 2 == 0) else 0
            want_zs = 1 if i % 2 == 0 else 0
            want_n = A.dim if n <= 1 else (1 if i % 2 == 0 else 0)
            if (c_dim, zs_dim, n_dim) != (want_c, want_zs, want_n):
                raise SuiteFailure(
                    f"tower n={n}, degree {i}: dims (center, star-center, nucleus) = "
                    f"({c_dim}, {zs_dim}, {n_dim}), expected "
                    f"({want_c}, {want_zs}, {want_n})"
                )
        yield (
            f"tower n={n} (dim {A.dim}): center/star-center/nucleus dims match "
            f"the expected pattern up to degree {b}"
        )


def _first_difference(ring_a, ring_b, max_degree):
    """The first ``(m, n, i, j)``, with degrees <= max_degree, at which the two
    rings' products (e_i X^m)(e_j X^n) differ; None if none."""
    degrees, indices = range(max_degree + 1), range(ring_a.coeff_algebra.dim)
    return next(
        (
            (m, n, i, j)
            for m, n, i, j in product(degrees, degrees, indices, indices)
            if ring_a._basis[m, i][n, j] != ring_b._basis[m, i][n, j]
        ),
        None,
    )


def suite_axioms(bound=None):
    """Ring axiom families and the flip/unflip coincidence over commutative bases."""
    b = bound if bound is not None else 6
    H = named("H")
    C = named("C")
    ring_h = star_skew_ring(H)
    ring_c = star_skew_ring(C)

    rep = check_axioms(ring_h, "F", b)
    if not rep.passed:
        raise SuiteFailure(f"F-family fails on the quaternion ring: {rep.summary()}")
    yield f"F-family on the quaternion ring: {rep.summary()}"

    rep = check_axioms(ring_h, "N", b)
    if rep.passed:
        raise SuiteFailure(
            "N-family unexpectedly holds on the quaternion ring "
            "(the generator should fail the right-slot axiom)"
        )
    axiom, witness = rep.first
    yield f"N-family on the quaternion ring fails as predicted; witness: [{axiom}] {witness}"

    rep = check_axioms(ring_c, "O", b)
    if not rep.passed:
        raise SuiteFailure(f"O-family fails on the complex ring: {rep.summary()}")
    yield f"O-family on the complex ring: {rep.summary()}"

    unflipped_c = FlipPolyRing(C, ring_c.sigma, ring_c.delta, flipped=False)
    if _first_difference(ring_c, unflipped_c, 5) is not None:
        raise SuiteFailure("flipped and unflipped products differ over the complex numbers")
    yield "flipped = unflipped over the commutative base (degrees <= 5)"

    unflipped_h = FlipPolyRing(H, ring_h.sigma, ring_h.delta, flipped=False)
    witness = _first_difference(ring_h, unflipped_h, 2)
    if witness is None:
        raise SuiteFailure(
            "flipped and unflipped products coincide over the quaternions, "
            "which would make the flip vacuous on a noncommutative base"
        )
    m, n, _, _ = witness
    yield f"flipped != unflipped over the quaternions; witness degrees (m={m}, n={n})"

    # the flip of a product rule swaps its coefficients when n is odd
    degrees, indices = range(5), range(H.dim)
    rule = {
        (m, n, i, j): ring_h._basis[m, i][n, j]
        for m, n, i, j in product(degrees, degrees, indices, indices)
    }

    def flip(table):
        return {
            (m, n, i, j): table[m, n, j, i] if n % 2 else v
            for (m, n, i, j), v in table.items()
        }

    if flip(flip(rule)) != rule:
        raise SuiteFailure("double flip of the tabulated rule is not the identity")
    yield "double flip of the tabulated rule returns the rule (degrees <= 4)"


# name -> (tag, suite); each suite yields its report lines
SUITES = {
    "thm1": ("quotient-matches-cayley-double", suite_thm1),
    "thm2": ("ring-is-double-of-poly-algebra", suite_thm2),
    "props": ("inheritance-criteria", suite_props),
    "centers": ("structural-sets-crosscheck", suite_centers),
    "corollary": ("tower-patterns", suite_corollary),
    "axioms": ("ring-axioms", suite_axioms),
}
# name -> the options its suite reads, which are the suite's parameters
SUITE_OPTIONS = {
    name: tuple(inspect.signature(suite).parameters) for name, (_, suite) in SUITES.items()
}


def run_suite(name, algebra=None, mu=None, bound=None):
    """Run one suite on the options it reads; its lines and first counterexample."""
    try:
        tag, suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; valid suites: {', '.join(SUITES)}"
        ) from None
    given = {"algebra": algebra, "mu": mu, "bound": bound}
    result = SuiteResult(name, tag)
    try:
        for line in suite(**{option: given[option] for option in SUITE_OPTIONS[name]}):
            result.lines.append(line)
    except SuiteFailure as failure:
        result.failure = str(failure)
    return result
