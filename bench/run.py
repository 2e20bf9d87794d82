"""flipcayley benchmark: one workload per process, closed loop, exact checks.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify_all --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout.  With ``--trace 0``
the workload runs pass after pass, each pass starting when the previous one
has returned, until the passes have taken ``--seconds``.  Every set-up and
every phase is timed with a fixed reference kernel run right before and
right after it, and reported in seconds at the reference speed, so that a
host slowed down by other tenants moves the reference and the workload
alike; the end-to-end metrics are medians of these corrected times.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics of the fastest traced pass are reported together with the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "flipcayley"
# Extra set-ups before the timed loop, so that setup_s is a median even when a
# workload fits only one pass into the run.
SETUP_REPEATS = 8
# Untraced/traced pass pairs of a traced run; the overhead compares the
# fastest (uncorrected) pass of each.
TRACED_PAIRS = 2

# Scale of corrected times: about the fastest reference() seen on the 2-core
# sandbox the benchmark was tuned on, so corrected times read like seconds.
REFERENCE_S = 0.09

perf = time.perf_counter

_XS = tuple(Fraction(i + 1, i + 3) for i in range(16))
_YS = tuple(Fraction(2 * i + 1, i + 5) for i in range(16))
_SIGNS = tuple(tuple((i ^ j, 1 - 2 * ((i * j) % 3 == 1)) for j in range(16)) for i in range(16))


def reference():
    """Fixed interpreted work much like the library's: signed-table products of
    Fraction vectors.  It never touches the library, so no change to the
    library moves it; only the host's speed does."""
    start = perf()
    for _ in range(60):
        out = [0] * 16
        for i, a in enumerate(_XS):
            row = _SIGNS[i]
            for j, b in enumerate(_YS):
                k, sign = row[j]
                out[k] += sign * a * b
    return perf() - start


def corrected(seconds, ref_before, ref_after):
    """Seconds at the reference speed: the time scaled by the host's speed,
    as measured by reference() right before and right after."""
    return seconds * REFERENCE_S * 2 / (ref_before + ref_after)


def import_fresh():
    """Import the library from the checkout anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    for sub in ("verify", "structure_analysis", "linalg", "flip_poly"):
        importlib.import_module(f"{PACKAGE}.{sub}")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"{PACKAGE} was imported from {lib.__file__}, not from {SRC}")
    return lib


def set_up(workload, inputs, tracer=None):
    """Import the library anew and build the workload's state; returns (lib, state, seconds)."""
    gc.collect()
    start = perf()
    lib = import_fresh()
    if tracer is not None:
        tracer.install(lib)
    state = workload.build(lib, inputs)
    return lib, state, perf() - start


class Pass:
    """One set-up plus one timed run of every unit of a workload.

    ``reference()`` runs before the set-up and after it and after every
    phase, so every set-up and phase time is corrected by the host's speed
    right around it.  ``raw_s`` is the uncorrected set-up plus phase time.
    """

    def __init__(self, workload, inputs, tracer=None):
        span = tracer.span if tracer is not None else lambda name: nullcontext()
        self.phase_s = {}
        self.outputs = {}
        try:
            ref = reference()
            self.lib, self.state, setup = set_up(workload, inputs, tracer)
            ref_next = reference()
            self.setup_s = corrected(setup, ref, ref_next)
            self.raw_s = setup
            units = workload.units(self.lib, self.state)
            for phase, group in itertools.groupby(units, key=lambda unit: unit[0]):
                ref = ref_next
                with span(phase):
                    t0 = perf()
                    for _, op, call in group:
                        with span(op) if op != phase else nullcontext():
                            self.outputs[op] = call()
                    seconds = perf() - t0
                ref_next = reference()
                self.phase_s[phase] = corrected(seconds, ref, ref_next)
                self.raw_s += seconds
        finally:
            self.unrestored = tracer.restore() if tracer is not None else []


def compare(reference, outputs):
    """Verdicts of a later pass: every output must equal the checked first pass."""
    return {
        op: None if outputs.get(op) == want else f"{op}: differs from the first pass"
        for op, want in reference.items()
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, verdicts):
        self.attempted += len(verdicts)
        self.failures.extend(msg for msg in verdicts.values() if msg is not None)


def extra_set_up(workload, inputs):
    ref = reference()
    seconds = set_up(workload, inputs)[2]
    return corrected(seconds, ref, reference())


def run_timed(workload, inputs, seconds, tally):
    setups = [extra_set_up(workload, inputs) for _ in range(SETUP_REPEATS)]
    passes = []  # per pass: phase -> corrected seconds
    reference_outputs = None
    measured = 0.0  # time in passes; the checks of the first pass do not count
    while measured < seconds:
        start = perf()
        p = Pass(workload, inputs)
        measured += perf() - start
        if reference_outputs is None:
            tally.add(workload.check(p.lib, p.state, p.outputs))
            reference_outputs = workload.canon(p.outputs)
        else:
            tally.add(compare(reference_outputs, workload.canon(p.outputs)))
        setups.append(p.setup_s)
        passes.append(p.phase_s)
    med = statistics.median
    walls = [sum(phase_s.values()) for phase_s in passes]
    metrics = {
        "wall_s": (med(walls), "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "phase1_s": (med(phase_s[workload.phase1] for phase_s in passes), "s"),
        "phase2_s": (med(phase_s[workload.phase2] for phase_s in passes), "s"),
    }
    print(
        f"{workload.name}: {len(passes)} passes (corrected pass time min {min(walls):.3f} s, "
        f"median {med(walls):.3f} s, max {max(walls):.3f} s), {len(setups)} set-ups; "
        f"phase1_s = {workload.phase1}, phase2_s = {workload.phase2}",
        file=sys.stderr,
    )
    return metrics


def run_traced(workload, inputs, tally):
    """Untraced and traced passes in turn; layer metrics of the fastest traced pass."""
    reference = None
    plain_s = []
    best = None  # (seconds, tracer) of the fastest traced pass
    for _ in range(TRACED_PAIRS):
        plain = Pass(workload, inputs)
        if reference is None:
            tally.add(workload.check(plain.lib, plain.state, plain.outputs))
            reference = workload.canon(plain.outputs)
        else:
            tally.add(compare(reference, workload.canon(plain.outputs)))
        plain_s.append(plain.raw_s)
        del plain
        tracer = Tracer()
        traced = Pass(workload, inputs, tracer)
        tally.add(compare(reference, workload.canon(traced.outputs)))
        tally.add({"restore": f"wrappers left: {traced.unrestored}" if traced.unrestored else None})
        seconds = traced.raw_s
        del traced
        if best is None or seconds < best[0]:
            best = (seconds, tracer)
        del tracer
    seconds, tracer = best
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (seconds - min(plain_s), "s")
    for row in tracer.span_summary():
        print(json.dumps(row), file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    sys.path.insert(0, str(SRC))
    import_fresh()  # untimed: the first import in a checkout compiles bytecode
    tally = Tally()
    try:
        if args.trace:
            metrics = run_traced(workload, inputs, tally)
        else:
            metrics = run_timed(workload, inputs, args.seconds, tally)
    except Exception:
        traceback.print_exc()
        return 1
    probe_failed = 0
    if hasattr(workload, "probe"):
        outcome = workload.probe(import_fresh())
        print(f"deep-degree probe: {outcome}", file=sys.stderr)
        probe_failed = int(outcome != "ok")
        # A wrong product is a defect in the output, unlike the known
        # RecursionError, which the per-layer count keeps visible.
        tally.add({"probe": f"deep-degree probe: {outcome}" if outcome == "wrong product" else None})
    if args.trace:
        metrics["flip_poly.deep_probe_failed"] = (probe_failed, "count")
    for msg in tally.failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
