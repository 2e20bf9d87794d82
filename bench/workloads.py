"""The benchmark's workloads: inputs from a seed, set-up, timed calls, exact checks.

A workload is used in four stages:

- ``inputs(seed)`` makes plain data (ints and Fractions) without the library;
- ``build(lib, inputs)`` turns it into algebras, rings and polynomials of a
  freshly imported library; this is set-up;
- ``units(lib, state)`` lists the timed units as ``(phase, op, thunk)``; each
  thunk makes one call into the library and returns its output;
- ``check(lib, state, outputs)`` decides every output exactly by an
  independent route and returns ``{op: failure message or None}``.

``canon`` turns outputs into plain data, so that outputs of different passes
(and of different imports of the library) can be compared for equality.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction


def canon_poly(p):
    return tuple((d, c.coords) for d, c in p.coeffs.items())


def canon_elements(elements):
    return tuple(e.coords for e in elements)


def _seeded_scalar(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _dense(rng, dim, degree):
    """Coefficient vectors of a dense polynomial: every coordinate nonzero."""
    return {d: tuple(_seeded_scalar(rng) for _ in range(dim)) for d in range(degree + 1)}


def _poly(lib, algebra, coeffs):
    return lib.Poly({d: algebra.element(c) for d, c in coeffs.items()})


# -------------------------------------------------------------------- verify_all
class VerifyAll:
    """Every suite of ``flipcayley verify --all`` in process, one call per
    algebra where the suite takes one, on fresh algebras in every pass."""

    name = "verify_all"
    phase1 = "centers"
    phase2 = "corollary"
    # (suite, algebras); None runs the suite once over its own inputs.  The
    # octonion centers cross-check is left out: as one 4.5 s call it would
    # leave too few passes in a run for a steady fastest time.
    SUITES = (
        ("thm1", ("R", "C", "C'", "H", "H'")),
        ("thm2", ("C", "H")),
        ("props", ("R", "C", "C'", "H", "H'", "O")),
        ("centers", ("R", "C", "H")),
        ("corollary", (None,)),
        ("axioms", (None,)),
    )
    # SHA-256 of the report these calls render, in this order (3,396 bytes).
    REPORT_SHA256 = "655c548840e87c0e0f4e1c9bfa13b136697bc82b94a90939d56a59446576ce54"
    BOUND = 6  # the CLI's default degree cap

    def inputs(self, seed):
        return None  # the suites fix their own inputs

    def build(self, lib, inputs):
        return None  # every suite builds its algebras itself

    def units(self, lib, state):
        def suite(name, algebra):
            return lambda: lib.verify.run_suite(name, algebra=algebra, bound=self.BOUND)

        return [
            (name, f"{name}:{algebra}" if algebra else name, suite(name, algebra))
            for name, algebras in self.SUITES
            for algebra in algebras
        ]

    @staticmethod
    def render(outputs):
        lines = [line for result in outputs.values() for line in result.render()]
        return "\n".join(lines) + "\n"

    def canon(self, outputs):
        out = {name: (r.passed, tuple(r.render())) for name, r in outputs.items()}
        out["report"] = self.render(outputs)
        return out

    def check(self, lib, state, outputs):
        verdicts = {
            name: None if r.passed else f"suite {name} failed: {r.failure}"
            for name, r in outputs.items()
        }
        digest = hashlib.sha256(self.render(outputs).encode()).hexdigest()
        verdicts["report"] = (
            None if digest == self.REPORT_SHA256 else f"report sha256 {digest} differs"
        )
        return verdicts


# ------------------------------------------------------------------------ towers
class Towers:
    """Structural predicates and sets on large towers; no ring products."""

    name = "towers"
    phase1 = "predicates"
    phase2 = "criteria"
    PREDICATE_MUS = (-1,) * 5  # dim 32
    CRITERIA_MUS = (Fraction(1, 2), 3, -1, 1)  # dim 16
    CENTER_BOUND = 6

    def inputs(self, seed):
        return None  # fixed towers; the seed has nothing to vary

    def build(self, lib, inputs):
        return {
            "predicate_algebra": lib.tower(self.PREDICATE_MUS),
            "criteria_algebra": lib.tower(self.CRITERIA_MUS),
        }

    def units(self, lib, state):
        tall, wide = state["predicate_algebra"], state["criteria_algebra"]
        degreewise_set = lib.structure_analysis.degreewise_set
        return [
            ("predicates", "is_flexible", tall.is_flexible),
            ("predicates", "is_alternative", tall.is_alternative),
            ("criteria", "center_set", lambda: degreewise_set(wide, "center", self.CENTER_BOUND)),
            ("criteria", "z_star_basis", wide.z_star_basis),
        ]

    def canon(self, outputs):
        center = outputs["center_set"]
        return {
            "is_flexible": outputs["is_flexible"],
            "is_alternative": outputs["is_alternative"],
            "center_set": tuple(
                (d, canon_elements(b)) for d, b in center.per_degree.items()
            ),
            "z_star_basis": canon_elements(outputs["z_star_basis"]),
        }

    def check(self, lib, state, outputs):
        """Known answers: every tower is flexible, dim >= 16 is not alternative,
        and the center (and the star-fixed center) is spanned by the unit at
        even degrees and is zero at odd degrees."""
        unit = (state["criteria_algebra"].unit.coords,)
        want_center = tuple(
            (d, unit if d % 2 == 0 else ()) for d in range(self.CENTER_BOUND + 1)
        )
        got = self.canon(outputs)
        return {
            "is_flexible": None if got["is_flexible"] is True else "tower not flexible",
            "is_alternative": None
            if got["is_alternative"] is False
            else "tower of dim >= 16 reported alternative",
            "center_set": None
            if got["center_set"] == want_center
            else f"center dims {outputs['center_set'].dims()}, want 1,0,1,0,...",
            "z_star_basis": None
            if got["z_star_basis"] == unit
            else f"z_star basis {got['z_star_basis']}, want the unit",
        }


# --------------------------------------------------------------------- ring_deep
class RingDeep:
    """FlipPolyRing.mul beyond the verify suites' degrees; no elimination."""

    name = "ring_deep"
    phase1 = "cold"
    phase2 = "warm"
    S_DEGREES = (200, 400)  # cold monomial products over the sedenions
    O_COLD_DEGREE = 30
    O_WARM_DEGREES = (25, 30)
    DELTA_DEGREE = 20
    DELTA_WARM_PRODUCTS = 2
    ORACLE_DEGREE = 12  # pi_oracle enumerates 2^m compositions
    PROBE_DEGREE = 1500

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "S": [
                (
                    degree,
                    (rng.randint(1, 15), _seeded_scalar(rng)),
                    (rng.randint(1, 15), _seeded_scalar(rng)),
                )
                for degree in self.S_DEGREES
            ],
            "O": [
                (_dense(rng, 8, degree), _dense(rng, 8, degree))
                for degree in (self.O_COLD_DEGREE,) + self.O_WARM_DEGREES
            ],
            "H_monomials": [
                (m, _dense(rng, 4, 0)[0], rng.randint(0, self.ORACLE_DEGREE), _dense(rng, 4, 0)[0])
                for m in range(self.ORACLE_DEGREE + 1)
            ],
            "H": [
                (_dense(rng, 4, self.DELTA_DEGREE), _dense(rng, 4, self.DELTA_DEGREE))
                for _ in range(1 + self.DELTA_WARM_PRODUCTS)
            ],
        }

    @staticmethod
    def delta_ring(lib, H):
        """H[X; *, delta] with the flip, delta the inner derivation x -> x e1 - e1 x."""
        e = H.basis()
        cols = [(H.mul(b, e[1]) - H.mul(e[1], b)).coords for b in e]
        matrix = [[cols[j][i] for j in range(H.dim)] for i in range(H.dim)]
        return lib.FlipPolyRing(
            H, lib.AdditiveMap.from_star(H), lib.AdditiveMap(matrix, "delta"), flipped=True
        )

    def build(self, lib, inputs):
        S, O, H = lib.named("S"), lib.named("O"), lib.named("H")

        def sed_monomial(degree, index_and_scalar):
            index, scalar = index_and_scalar
            return lib.Poly({degree: lib.basis_element(16, index).scaled(scalar)})

        ops = {}  # op -> (phase, ring name, left, right); cold ops come first
        for degree, a, b in inputs["S"]:
            ops[f"S{degree}"] = ("cold", f"S{degree}", sed_monomial(degree, a), sed_monomial(degree, b))
        (p, q), *warm_o = inputs["O"]
        ops["O_cold"] = ("cold", "O", _poly(lib, O, p), _poly(lib, O, q))
        for m, a, n, b in inputs["H_monomials"]:
            ops[f"Hd_mono{m}"] = ("cold", "Hd", lib.Poly({m: H.element(a)}), lib.Poly({n: H.element(b)}))
        (p, q), *warm_h = inputs["H"]
        ops["Hd_cold"] = ("cold", "Hd", _poly(lib, H, p), _poly(lib, H, q))
        for k, (p, q) in enumerate(warm_o):
            ops[f"O_warm{k}"] = ("warm", "O", _poly(lib, O, p), _poly(lib, O, q))
        for k, (p, q) in enumerate(warm_h):
            ops[f"Hd_warm{k}"] = ("warm", "Hd", _poly(lib, H, p), _poly(lib, H, q))
        rings = {f"S{d}": lib.star_skew_ring(S) for d in self.S_DEGREES}
        rings["O"] = lib.star_skew_ring(O)
        rings["Hd"] = self.delta_ring(lib, H)
        return {"rings": rings, "ops": ops}

    def units(self, lib, state):
        def product(ring, p, q):
            return lambda: state["rings"][ring].mul(p, q)

        return [
            (phase, name, product(ring, p, q))
            for name, (phase, ring, p, q) in state["ops"].items()
        ]

    def canon(self, outputs):
        return {name: canon_poly(p) for name, p in outputs.items()}

    # ----------------------------------------------------------------- checks
    @staticmethod
    def _tau_route(ring, terms_of_b):
        """sum over monomial pairs of tau_n(a, v_i) X^(i+n), given X^m b = sum v_i X^i."""
        algebra = ring.coeff_algebra

        def product(p, q):
            acc = {}
            for m, a in p.coeffs.items():
                for n, b in q.coeffs.items():
                    for i, v in terms_of_b(m, n, b).items():
                        coeff = algebra.mul(v, a) if ring.flipped and n % 2 else algebra.mul(a, v)
                        acc[i + n] = acc[i + n] + coeff if i + n in acc else coeff
            return acc

        return product

    @staticmethod
    def _left_pi_matrices(ring, top):
        """Matrices of pi_i^m for m <= top by pi_i^m = sigma pi_(i-1)^(m-1) + delta pi_i^(m-1).

        This is X (c X^k) = sigma(c) X^(k+1) + delta(c) X^k iterated, which
        composes sigma and delta on the left; the library's recurrence
        composes them on the right, so the two routes share no code.
        """
        def matmul(a, b):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]

        def add(a, b):
            return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

        sigma, delta = ring.sigma.matrix, ring.delta.matrix
        n = len(sigma)
        levels = [{0: [[int(i == j) for j in range(n)] for i in range(n)]}]
        for _ in range(top):
            prev = levels[-1]
            level = {}
            for i, mat in prev.items():
                for k, image in ((i + 1, matmul(sigma, mat)), (i, matmul(delta, mat))):
                    level[k] = add(level[k], image) if k in level else image
            levels.append(level)
        return levels

    def check(self, lib, state, outputs):
        rings, ops = state["rings"], state["ops"]
        verdicts = {}
        for name, pq in outputs.items():
            _, ring_name, p, q = ops[name]
            ring = rings[ring_name]
            A = ring.coeff_algebra
            if ring_name == "Hd":
                verdicts[name] = self._check_delta(lib, ring, name, p, q, pq)
                continue
            if lib.alpha(ring, pq) != ring.mul(lib.alpha(ring, q), lib.alpha(ring, p)):
                verdicts[name] = "alpha(pq) != alpha(q) alpha(p)"
            elif lib.psi(A, lib.cayley_t_mul(A, lib.psi_inv(A, p), lib.psi_inv(A, q))) != pq:
                verdicts[name] = "product differs from the t-double route"
            else:
                verdicts[name] = None
        return verdicts

    def _check_delta(self, lib, ring, name, p, q, pq):
        A = ring.coeff_algebra
        if "mono" in name:
            def terms(m, n, b):
                return {i: ring.pi_oracle(i, m, b) for i in range(m + 1)}
        else:
            levels = self._left_pi_matrices(ring, p.degree())

            def terms(m, n, b):
                return {
                    i: A.element(sum(a * x for a, x in zip(row, b.coords)) for row in mat)
                    for i, mat in levels[m].items()
                }

        expected = lib.Poly(self._tau_route(ring, terms)(p, q))
        if expected != pq:
            route = "pi_oracle" if "mono" in name else "generator"
            return f"{name}: product differs from the {route} route"
        return None

    def probe(self, lib):
        """The cold degree-1500 product over S: "ok", "wrong product" or the error raised."""
        S = lib.named("S")
        ring = lib.star_skew_ring(S)
        e = S.basis()
        d = self.PROBE_DEGREE
        try:
            got = ring.mul(lib.Poly({d: e[1]}), lib.Poly({d: e[2]}))
        except RecursionError:
            return "RecursionError"
        want = lib.Poly({2 * d: S.mul(e[1], e[2])})  # *^d = id and tau_d keeps order
        return "ok" if got == want else "wrong product"


WORKLOADS = {w.name: w for w in (VerifyAll(), Towers(), RingDeep())}
