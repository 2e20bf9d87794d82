"""Command-line front end: build algebras, multiply, inspect structure, verify.

Element literals are signed sums of basis symbols with rational
coefficients, e.g. ``1/2*e0 - e3`` (optionally wrapped in brackets).
Polynomial literals use bracketed coordinate vectors per degree,
e.g. ``[1,0,0,0] + [0,1,0,0]*X^2``.

Exit codes: 0 success, 1 a check or suite failed (witness printed),
2 usage or parse error (also a ``verify --algebra`` or ``--mu`` that no
suite run reads, and ``verify --all`` with ``--suite``).  Run as a script,
a closed stdout ends the run by SIGPIPE, with no traceback.  Degree
bounds: ``check`` defaults to 4 and ``analyze`` to 6, both at most 8;
``--cross-check`` runs to 4.
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import sys

from . import structure_analysis as sa
from . import verify as verify_mod
from .algebra_core import AlgebraElement
from .cayley_dickson import NAMED_TOWERS, find_zero_divisor, named, tower
from .flip_poly import (
    AXIOM_FAMILIES,
    check_axioms,
    parse_poly,
    poly_to_json,
    poly_to_text,
    signed_terms,
    star_skew_ring,
)
from .involutions import alpha, beta, degree_one_extension_violations
from .quotient_iso import QuotientRing
from .scalars import format_rational, parse_rational, simplify


class CliError(Exception):
    """Bad arguments or unparseable literals; mapped to exit code 2."""


# ------------------------------------------------------------------ literals
# a coefficient p or p/q, then an optional * and a basis symbol e<k>; or a
# bare coefficient, which counts at e0
_ELEMENT_TERM = re.compile(r"(?:([0-9]+(?:/[0-9]+)?)\s*(?:\*\s*)?)?e([0-9]+)|([0-9]+(?:/[0-9]+)?)")


def _rational(text, what):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise CliError(f"bad {what}: {exc}") from None


def parse_element(text, dim):
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    try:
        terms = signed_terms(body, _ELEMENT_TERM)
    except ValueError as exc:
        raise CliError(f"bad element literal: {exc}") from None
    coords = [0] * dim
    for sign, (coefficient, index, scalar) in terms:
        value = _rational(coefficient or scalar or "1", "coefficient")
        index = int(index or 0)
        if index >= dim:
            raise CliError(f"basis symbol e{index} out of range for dim {dim}")
        coords[index] += sign * value
    return AlgebraElement(simplify(c) for c in coords)


def format_element(elem):
    parts = []
    for i, c in enumerate(elem.coords):
        if not c:
            continue
        positive = c > 0
        magnitude = c if positive else -c
        body = f"e{i}" if magnitude == 1 else f"{format_rational(magnitude)}*e{i}"
        parts.append((positive, body))
    if not parts:
        return "0"
    positive, body = parts[0]
    out = body if positive else "-" + body
    for positive, body in parts[1:]:
        out += (" + " if positive else " - ") + body
    return out


# -------------------------------------------------------------------- output
def _print_table(rows):
    """Print rows of cells as left-aligned columns two spaces apart."""
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _print_element(elem, as_json):
    if as_json:
        print(json.dumps([format_rational(c) for c in elem.coords]))
    else:
        print(format_element(elem))


def _print_algebra(algebra, as_json):
    """The algebra as JSON, or its basis multiplication table as text."""
    if as_json:
        print(json.dumps(algebra.to_json_dict(), indent=2))
        return
    basis = algebra.basis()
    names = [f"e{i}" for i in range(algebra.dim)]
    rows = [["*"] + names]
    for i, x in enumerate(basis):
        rows.append([names[i]] + [format_element(algebra.mul(x, y)) for y in basis])
    _print_table(rows)


# ------------------------------------------------------------------- helpers
def _build_algebra(args):
    if args.algebra and args.mus:
        raise CliError("use either --algebra or --mus, not both")
    if args.algebra:
        try:
            return named(args.algebra)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    if args.mus:
        mus = [_rational(part, "--mus value") for part in args.mus.split(",")]
        try:
            return tower(mus)
        except ValueError as exc:
            raise CliError(f"bad --mus value: {exc}") from None
    raise CliError("an algebra is required: pass --algebra NAME or --mus LIST")


def _parse_poly(text, dim):
    try:
        return parse_poly(text, dim)
    except ValueError as exc:
        raise CliError(f"bad polynomial literal: {exc}") from None


# -------------------------------------------------------------- subcommands
def cmd_algebra(args):
    algebra = _build_algebra(args)
    print(f"dim: {algebra.dim}")
    print("unit: e0")
    print(f"commutative: {algebra.is_commutative()}")
    print(f"associative: {algebra.is_associative()}")
    print(f"alternative: {algebra.is_alternative()}")
    print(f"flexible: {algebra.is_flexible()}")
    if args.zero_divisors:
        hit = find_zero_divisor(algebra)
        if hit is None:
            print("zero divisors: none found by the sparse search")
        else:
            x, y = hit
            print(
                f"zero divisors: ({format_element(x)}) * ({format_element(y)}) = 0"
            )
    return 0


def cmd_mul(args):
    algebra = _build_algebra(args)
    x = parse_element(args.x, algebra.dim)
    y = parse_element(args.y, algebra.dim)
    _print_element(algebra.mul(x, y), args.json)
    return 0


def cmd_assoc(args):
    algebra = _build_algebra(args)
    x = parse_element(args.x, algebra.dim)
    y = parse_element(args.y, algebra.dim)
    z = parse_element(args.z, algebra.dim)
    _print_element(algebra.associator(x, y, z), args.json)
    return 0


def cmd_table(args):
    _print_algebra(_build_algebra(args), args.json)
    return 0


def cmd_check(args):
    algebra = _build_algebra(args)
    ring = star_skew_ring(algebra)
    try:
        report = check_axioms(ring, args.family, args.bound)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(report.summary())
    return 0 if report.passed else 1


def cmd_involution(args):
    algebra = _build_algebra(args)
    ring = star_skew_ring(algebra)
    if args.validate is not None:
        if args.poly is not None or args.which is not None or args.json:
            raise CliError("--validate takes no polynomial literal, --which or --json")
        candidate = _parse_poly(args.validate, algebra.dim)
        violations = degree_one_extension_violations(ring, candidate)
        if not violations:
            print("candidate satisfies the necessary extension conditions")
            return 0
        for violation in violations:
            print(f"violated: {violation}")
        return 1
    if args.poly is None:
        raise CliError("a polynomial literal is required (or use --validate)")
    p = _parse_poly(args.poly, algebra.dim)
    image = beta(ring, p) if args.which == "beta" else alpha(ring, p)
    if args.json:
        print(json.dumps(poly_to_json(image)))
    else:
        print(poly_to_text(image))
    return 0


def cmd_quotient(args):
    algebra = _build_algebra(args)
    try:
        quotient = QuotientRing(algebra, _rational(args.mu, "--mu value"))
    except ValueError as exc:
        raise CliError(f"bad --mu value: {exc}") from None
    doubled_dim = 2 * algebra.dim
    if args.action == "table":
        if args.operands:
            raise CliError("quotient table takes no element literals")
        _print_algebra(quotient.to_star_algebra(), args.json)
        return 0
    if args.action == "mul":
        if len(args.operands) != 2:
            raise CliError("quotient mul needs exactly two element literals")
        u = parse_element(args.operands[0], doubled_dim)
        v = parse_element(args.operands[1], doubled_dim)
        result = quotient.mul(u, v)
    else:  # star: the parser admits no other action
        if len(args.operands) != 1:
            raise CliError("quotient star needs exactly one element literal")
        result = quotient.star(parse_element(args.operands[0], doubled_dim))
    _print_element(result, args.json)
    return 0


def cmd_analyze(args):
    if args.cross_check and args.set == "z_star":
        raise CliError("--cross-check has no brute-force oracle for --set=z_star")
    algebra = _build_algebra(args)
    try:
        if args.set == "z_star":
            degree_set = sa.z_star_of_b(algebra, args.bound)
        else:
            degree_set = sa.degreewise_set(algebra, args.set, args.bound)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    cross_failure = None
    if args.cross_check:
        checked_to = min(args.bound, sa.BRUTE_BOUND_LIMIT)
        try:
            brute = sa.degreewise_set_bruteforce(algebra, args.set, checked_to)
        except ValueError as exc:
            cross_failure = str(exc)
        else:
            for degree in range(checked_to + 1):
                if degree_set.per_degree[degree] != brute.per_degree[degree]:
                    cross_failure = (
                        f"degree {degree}: criteria basis "
                        f"{[e.coords for e in degree_set.per_degree[degree]]} != "
                        f"brute-force basis "
                        f"{[e.coords for e in brute.per_degree[degree]]}"
                    )
                    break
    if args.json:
        payload = {
            "set": args.set,
            "bound": args.bound,
            "degrees": [
                {
                    "degree": degree,
                    "dim": len(basis),
                    "basis": [
                        [format_rational(c) for c in e.coords] for e in basis
                    ],
                }
                for degree, basis in degree_set.per_degree.items()
            ],
        }
        if args.cross_check:
            payload["cross_check"] = {
                "bound": checked_to,
                "ok": cross_failure is None,
            }
            if cross_failure:
                payload["cross_check"]["witness"] = cross_failure
        print(json.dumps(payload, indent=2))
    else:
        rows = [["degree", "dim", "basis"]]
        for degree, basis in degree_set.per_degree.items():
            rendered = "; ".join(format_element(e) for e in basis) or "-"
            rows.append([str(degree), str(len(basis)), rendered])
        _print_table(rows)
        if args.cross_check:
            if cross_failure is None:
                print(f"cross-check vs brute force (bound {checked_to}): OK")
            else:
                print(f"cross-check FAILED: {cross_failure}")
    return 1 if cross_failure else 0


def cmd_verify(args):
    if args.run_all and args.suite is not None:
        raise CliError("--all and --suite exclude each other")
    names = list(verify_mod.SUITES) if args.suite is None else [args.suite]
    for option in ("algebra", "mu"):
        readers = [name for name, read in verify_mod.SUITE_OPTIONS.items() if option in read]
        if getattr(args, option) is not None and not set(names) & set(readers):
            raise CliError(f"suite {args.suite} reads no --{option}; {', '.join(readers)} do")
    mu = None
    if args.mu is not None:
        mu = _rational(args.mu, "--mu value")
        if mu == 0:
            raise CliError("bad --mu value: mu must be nonzero")
    if args.algebra is not None:
        try:
            named(args.algebra)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    failed = False
    for name in names:
        result = verify_mod.run_suite(name, algebra=args.algebra, mu=mu)
        for line in result.render():
            print(line)
        if not result.passed:
            failed = True
    return 1 if failed else 0


# ------------------------------------------------------------------- parser
def build_parser():
    parser = argparse.ArgumentParser(
        prog="flipcayley",
        description=(
            "Exact computer algebra for iterated doubling algebras and flipped "
            "polynomial rings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_algebra(p, emits_json=True):
        p.add_argument("--algebra", help=f"named algebra: {', '.join(NAMED_TOWERS)}")
        p.add_argument("--mus", help="doubling scalars, e.g. --mus=-1,-1,1")
        if emits_json:
            p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    p = sub.add_parser("algebra", help="build an algebra and describe it")
    p = with_algebra(p, emits_json=False)
    p.add_argument(
        "--zero-divisors",
        action="store_true",
        help="also run the sparse zero-divisor search",
    )
    p.set_defaults(func=cmd_algebra)

    p = with_algebra(sub.add_parser("mul", help="multiply two elements"))
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_mul)

    p = with_algebra(sub.add_parser("assoc", help="associator of three elements"))
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("z")
    p.set_defaults(func=cmd_assoc)

    p = with_algebra(sub.add_parser("table", help="full basis multiplication table"))
    p.set_defaults(func=cmd_table)

    p = with_algebra(
        sub.add_parser("check", help="run an axiom family on the flipped ring"), emits_json=False
    )
    p.add_argument("--family", choices=AXIOM_FAMILIES, required=True)
    p.add_argument("--bound", type=int, default=4, help="degree bound (default %(default)s)")
    p.set_defaults(func=cmd_check)

    p = with_algebra(
        sub.add_parser("involution", help="apply alpha/beta, or validate a candidate")
    )
    p.add_argument("--which", choices=("alpha", "beta"), help="default: alpha")
    p.add_argument("--validate", metavar="POLY", help="candidate image of X to validate")
    p.add_argument("poly", nargs="?", help="polynomial literal")
    p.set_defaults(func=cmd_involution)

    p = with_algebra(
        sub.add_parser("quotient", help="work modulo X^2 - mu on (a, b) classes")
    )
    p.add_argument("--mu", required=True)
    p.add_argument("action", choices=("mul", "star", "table"))
    p.add_argument("operands", nargs="*")
    p.set_defaults(func=cmd_quotient)

    p = with_algebra(
        sub.add_parser("analyze", help="degreewise structural sets of the flipped ring")
    )
    p.add_argument(
        "--set",
        choices=sa.SET_KINDS + ("z_star",),
        required=True,
    )
    p.add_argument("--bound", type=int, default=6, help="degree bound (default %(default)s)")
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run the named verification suites")
    p.add_argument("--suite", choices=tuple(verify_mod.SUITES))
    p.add_argument("--all", action="store_true", dest="run_all")
    p.add_argument("--algebra", help="restrict the suites that read it to one named algebra")
    p.add_argument("--mu", help="restrict the suites that read it to one doubling scalar")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    if hasattr(signal, "SIGPIPE"):  # a closed stdout ends the run quietly, as in other filters
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
