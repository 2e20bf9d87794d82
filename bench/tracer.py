"""Per-layer tracing of flipcayley, installed from outside the library.

The tracer wraps public functions and methods of a freshly imported
``flipcayley`` and restores every one of them afterwards.  Coarse calls
(verify suites, workload phases, the ``degreewise_set*`` solvers,
``linalg.nullspace``) become spans with a parent link.  Hot leaf calls are
aggregated as a count and a total time under the innermost open span instead
of one span each.  Self time is a call's duration minus the time covered by
the wrapped calls nested inside it; the tracer's own bookkeeping is charged
to neither.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

perf = time.perf_counter

# (module, class or None, attribute, metric group for inclusive time or None)
SPANS = (
    ("linalg", None, "nullspace", None),
    ("structure_analysis", None, "degreewise_set", "criteria"),
    ("structure_analysis", None, "z_star_of_b", "criteria"),
    ("structure_analysis", None, "degreewise_set_bruteforce", "brute"),
)
LEAVES = (
    ("linalg", "RowReducer", "add", None),
    ("linalg", None, "mat_vec", None),
    ("algebra_core", "StarAlgebra", "mul", None),
    ("algebra_core", "StarAlgebra", "star", None),
    ("algebra_core", "StarAlgebra", "is_commutative", "predicate"),
    ("algebra_core", "StarAlgebra", "is_associative", "predicate"),
    ("algebra_core", "StarAlgebra", "is_flexible", "predicate"),
    ("algebra_core", "StarAlgebra", "is_alternative", "predicate"),
    ("flip_poly", "FlipPolyRing", "mul", "ring_mul"),
    ("flip_poly", "FlipPolyRing", "monomial_product", None),
    ("flip_poly", "FlipPolyRing", "pi_matrix", None),
    ("flip_poly", "Poly", "__init__", None),
    ("cayley_dickson", None, "tower", "build"),
    ("cayley_dickson", None, "cayley_double", "build"),
)
CRITERIA_SPANS = ("degreewise_set", "z_star_of_b")
BRUTE_SPANS = ("degreewise_set_bruteforce",)

# Every wrapped call adds one interpreter frame.  The pi recurrence recurses
# once per degree, so the traced pass raises the recursion limit by this
# factor to leave the library the same depth it has untraced.
RECURSION_FACTOR = 2

_MISSING = object()


def _library_modules(prefix):
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == prefix or name.startswith(prefix + ".")
    ]


def _bits(value):
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


def _max_bits(vectors):
    return max((_bits(x) for v in vectors for x in v), default=0)


class Record:
    """Count and self time of one wrapped callable."""

    __slots__ = ("count", "self_s")

    def __init__(self):
        self.count = 0
        self.self_s = 0.0


class Span:
    __slots__ = ("name", "parent", "start", "end", "self_s", "leaves")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent  # index into Tracer.spans, or None for the root
        self.start = self.end = 0.0
        self.self_s = 0.0
        self.leaves = defaultdict(lambda: [0, 0.0])  # name -> [count, total_s]


class Tracer:
    def __init__(self):
        self.spans = []
        self.records = defaultdict(Record)
        self.group_s = defaultdict(float)
        self._group_depth = defaultdict(int)
        self._frames = [[0.0]]  # child time of each open wrapped call
        self._open = [None]  # indices of open spans; None is the root
        self._patched = []  # (owner, attribute, original)
        self._wrappers = []
        self._prefix = None
        self._recursion_limit = None
        self.rank_gains = 0
        self.max_bits = 0
        self.monomial_nonzero = 0
        self.cache_calls = 0
        self.cache_misses = 0
        # (ring, i, m) -> matrix is nonzero; holds the traced pass's rings
        self.pi_entries = {}

    # ---------------------------------------------------------------- wrapping
    def _wrap(self, name, fn, group, is_span, hook):
        rec = self.records[name]
        frames = self._frames
        open_spans = self._open
        spans = self.spans
        group_s = self.group_s
        group_depth = self._group_depth

        def wrapper(*args, **kwargs):
            enter = perf()
            frame = [0.0]
            frames.append(frame)
            outermost = group is not None and group_depth[group] == 0
            if group is not None:
                group_depth[group] += 1
            parent = open_spans[-1]
            if is_span:
                open_spans.append(len(spans))
                span = Span(name, parent)
                spans.append(span)
            result = _MISSING
            start = perf()
            if is_span:
                span.start = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                duration = end - start
                frames.pop()
                rec.count += 1
                rec.self_s += duration - frame[0]
                if group is not None:
                    group_depth[group] -= 1
                    if outermost:
                        group_s[group] += duration
                if is_span:
                    open_spans.pop()
                    span.end = end
                    span.self_s = duration - frame[0]
                elif parent is not None:
                    leaf = spans[parent].leaves[name]
                    leaf[0] += 1
                    leaf[1] += duration
                if hook is not None and result is not _MISSING:
                    hook(args, result)
                frames[-1][0] += perf() - enter
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self):
        def row_added(args, gained):
            self.rank_gains += bool(gained)
            self.max_bits = max(self.max_bits, _max_bits((args[1],)))

        def basis_returned(args, basis):
            self.max_bits = max(self.max_bits, _max_bits(basis))

        def monomial_done(args, terms):
            self.monomial_nonzero += bool(terms)

        def pi_seen(args, matrix):
            self.pi_entries[(args[0], args[1], args[2])] = matrix is not None

        return {
            "RowReducer.add": row_added,
            "nullspace": basis_returned,
            "FlipPolyRing.monomial_product": monomial_done,
            "FlipPolyRing.pi_matrix": pi_seen,
        }

    def _wrap_cached(self, fn):
        def cached(algebra, key, compute):
            missed = []

            def compute_and_note():
                missed.append(True)
                return compute()

            try:
                return fn(algebra, key, compute_and_note)
            finally:
                self.cache_calls += 1
                self.cache_misses += bool(missed)

        cached.__wrapped__ = fn
        return cached

    def _patch(self, owner, attr, wrapper):
        """Put the wrapper wherever the library holds the original: on its
        class, or in every module that imported the function."""
        original = vars(owner)[attr]
        self._wrappers.append(wrapper)
        holders = [owner] if isinstance(owner, type) else _library_modules(self._prefix)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patched.append((holder, key, original))

    def install(self, lib):
        self._prefix = lib.__name__
        hooks = self._hooks()
        for is_span, table in ((True, SPANS), (False, LEAVES)):
            for module, cls_name, attr, group in table:
                owner = getattr(lib, module)
                if cls_name is not None:
                    owner = getattr(owner, cls_name)
                name = f"{cls_name}.{attr}" if cls_name else attr
                fn = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(name, fn, group, is_span, hooks.get(name)))
        star_algebra = lib.algebra_core.StarAlgebra
        self._patch(star_algebra, "cached", self._wrap_cached(star_algebra.cached))
        self._recursion_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(self._recursion_limit * RECURSION_FACTOR)

    def restore(self):
        """Put every original back; returns the places where a wrapper is left."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        wrappers = {id(w) for w in self._wrappers}
        left = []
        for mod in _library_modules(self._prefix):
            owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            left.extend(
                f"{mod.__name__}:{getattr(owner, '__name__', '')}.{key}"
                for owner in owners
                for key, value in vars(owner).items()
                if id(value) in wrappers
            )
        self._patched.clear()
        self._wrappers.clear()
        if self._recursion_limit is not None:
            sys.setrecursionlimit(self._recursion_limit)
            self._recursion_limit = None
        return left

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (a suite or a phase)."""
        self._frames.append([0.0])
        parent = self._open[-1]
        index = len(self.spans)
        span = Span(name, parent)
        self.spans.append(span)
        self._open.append(index)
        span.start = perf()
        try:
            yield
        finally:
            span.end = perf()
            self._open.pop()
            frame = self._frames.pop()
            span.self_s = (span.end - span.start) - frame[0]
            self._frames[-1][0] += span.end - span.start

    # ----------------------------------------------------------------- results
    def _under(self, index, names):
        while index is not None:
            span = self.spans[index]
            if span.name in names:
                return True
            index = span.parent
        return False

    def _rows_under(self, names):
        return sum(
            span.leaves["RowReducer.add"][0]
            for i, span in enumerate(self.spans)
            if "RowReducer.add" in span.leaves and self._under(i, names)
        )

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""
        r = self.records

        def ratio(part, whole):
            return part / whole if whole else 0.0

        rows_fed = r["RowReducer.add"].count
        monomials = r["FlipPolyRing.monomial_product"].count
        entries = len(self.pi_entries)
        return {
            "linalg.rows_fed": (rows_fed, "count"),
            "linalg.rank_gain_ratio": (ratio(self.rank_gains, rows_fed), "ratio"),
            "linalg.nullspace_calls": (r["nullspace"].count, "count"),
            "linalg.max_bits": (self.max_bits, "bits"),
            "linalg.self_s": (r["RowReducer.add"].self_s + r["nullspace"].self_s, "s"),
            "linalg.mat_vec_calls": (r["mat_vec"].count, "count"),
            "linalg.mat_vec_s": (r["mat_vec"].self_s, "s"),
            "algebra_core.mul_calls": (r["StarAlgebra.mul"].count, "count"),
            "algebra_core.mul_s": (r["StarAlgebra.mul"].self_s, "s"),
            "algebra_core.star_calls": (r["StarAlgebra.star"].count, "count"),
            "algebra_core.cache_hit_ratio": (
                ratio(self.cache_calls - self.cache_misses, self.cache_calls),
                "ratio",
            ),
            "algebra_core.predicate_s": (self.group_s["predicate"], "s"),
            "flip_poly.pi_calls": (r["FlipPolyRing.pi_matrix"].count, "count"),
            "flip_poly.pi_entries": (entries, "count"),
            "flip_poly.pi_nonzero_share": (
                ratio(sum(self.pi_entries.values()), entries),
                "ratio",
            ),
            "flip_poly.pi_s": (r["FlipPolyRing.pi_matrix"].self_s, "s"),
            "flip_poly.ring_mul_calls": (r["FlipPolyRing.mul"].count, "count"),
            "flip_poly.monomial_products": (monomials, "count"),
            "flip_poly.monomial_nonzero_ratio": (
                ratio(self.monomial_nonzero, monomials),
                "ratio",
            ),
            "flip_poly.poly_allocs": (r["Poly.__init__"].count, "count"),
            "flip_poly.ring_mul_s": (self.group_s["ring_mul"], "s"),
            "structure_analysis.criteria_s": (self.group_s["criteria"], "s"),
            "structure_analysis.brute_s": (self.group_s["brute"], "s"),
            "structure_analysis.criteria_rows": (self._rows_under(CRITERIA_SPANS), "count"),
            "structure_analysis.brute_rows": (self._rows_under(BRUTE_SPANS), "count"),
            "cayley_dickson.build_s": (self.group_s["build"], "s"),
        }

    def span_summary(self):
        """Span durations and self times summed by (parent name, name)."""
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            parent = self.spans[span.parent].name if span.parent is not None else "-"
            entry = totals[(parent, span.name)]
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += span.self_s
        return [
            {"parent": p, "name": n, "count": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(totals.items(), key=lambda kv: -kv[1][1])
        ]
