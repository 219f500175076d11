"""Runs one workload's operations in a process of its own.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and sends a job as JSON on stdin:

    {"src": ..., "kind": "count"|"verify", "docs": [...], "warmup": doc,
     "seconds": s, "trace": 0|1}

Only spectrum documents come in, so the peak resident memory of this
process is that of the program doing the workload.  One closed-loop caller
runs whole rounds (every document once) until ``seconds`` have passed.

With ``trace`` 0 each operation is ``spectrum_from_obj`` followed by
``fiber_report`` or ``verify_spectrum``, timed with ``perf_counter`` and
nothing else.  With ``trace`` 1 untraced and traced rounds alternate; a
traced operation calls each module's public functions one by one and
records a span around each call.  Short fixed reference bursts run between
operations (see ``reference_burst``) and are timed apart from them.  The
result is one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import multfiber as mf
from multfiber.errors import BudgetExhaustedError


REFERENCE_EVERY_S = 0.05


def reference_burst():
    """Fixed interpreter work, apart from the program, to gauge machine speed.

    The speed of a shared virtual CPU drifts by tens of percent over minutes
    and flips between fast and slow states within a second.  A burst runs
    right before every operation, and more run after long operations so
    that they sample the pass evenly in time.  ``run.py`` scales each
    operation's latency by the burst before it, and the pass's throughput by
    the mean of all bursts.  The mix (exact rationals, dict
    and tuple traffic, bit tricks on ints) is the program's kind of work.
    """
    acc = Fraction(0)
    seen: dict[tuple, int] = {}
    for i in range(1, 150):
        acc += Fraction(i, i + 3)
        key = (i % 17, i & 7)
        seen[key] = seen.get(key, 0) + i * i
    total = 0
    for mask in range(1, 1 << 11):
        low = mask & -mask
        total += (mask ^ low).bit_count() + low.bit_length()
    return acc, total


def timed_reference(times: list) -> float:
    t0 = perf_counter()
    reference_burst()
    end = perf_counter()
    times.append(end - t0)
    return end


class Tracer:
    """Spans kept in memory: [name, start, end, parent span, operation id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}

    def open(self, name: str, op: int, parent: int | None = None) -> int:
        self.spans.append([name, perf_counter(), None, parent, op])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = perf_counter()

    def call(self, name: str, op: int, parent: int, fn, *args):
        span = self.open(name, op, parent)
        try:
            return fn(*args)
        finally:
            self.close(span)

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


# --- one operation, untraced -----------------------------------------------------

def count_op(doc):
    return mf.fiber_report(mf.spectrum_from_obj(doc))


def verify_op(doc):
    return mf.verify_spectrum(mf.spectrum_from_obj(doc))


# --- one operation, traced layer by layer ------------------------------------------

def _discrete(spec, lat, size):
    classes = mf.value_classes(spec)
    mf.monic_centered_count(spec, lat, size, classes)
    mf.conjugacy_count(spec, lat, size, classes)


def traced_count(tr: Tracer, op: int, doc):
    root = tr.open("op.count", op)
    try:
        spec = tr.call("spectrum.parse", op, root, mf.spectrum_from_obj, doc)
        subsets = tr.call("lattice.scan", op, root, mf.zero_sum_subsets, spec)
        lat = tr.call("lattice.enumerate", op, root, mf.enumerate_lattice, spec)
        tr.call("counting.subspectra", op, root, mf.fiber_size, spec, lat, "subspectra")
        tr.call("counting.refinement", op, root, mf.fiber_size, spec, lat, "refinement")
        size = tr.call("counting.closed_form", op, root, mf.fiber_size_closed_form, spec, lat)
        tr.call("counting.discrete", op, root, _discrete, spec, lat, size)
        report = tr.call("counting.report", op, root, mf.fiber_report, spec)
    finally:  # a failed operation still leaves a closed root span
        tr.close(root)
    tr.count("lattice.masks_scanned", (1 << spec.d) - 1)
    tr.count("lattice.zero_sum_subsets", len(subsets))
    tr.count("lattice.partitions", len(lat.partitions))
    return report


def _exact_count(spec):
    """What ``verify_spectrum`` computes exactly before it solves."""
    lat = mf.enumerate_lattice(spec)
    size = mf.fiber_size_closed_form(spec, lat)
    classes = mf.value_classes(spec)
    mf.monic_centered_count(spec, lat, size, classes)
    return (spec.d - 1) * size, classes


def _solve(spec, expected):
    try:
        return mf.solve_system(spec, None, expected)
    except BudgetExhaustedError as exc:
        return exc.result


def _forward_all(tuples):
    for t in tuples:
        mf.forward_multipliers(t.zeta)


def traced_verify(tr: Tracer, op: int, doc):
    root = tr.open("op.verify", op)
    try:
        spec = tr.call("spectrum.parse", op, root, mf.spectrum_from_obj, doc)
        expected, classes = tr.call("verifier.exact_count", op, root, _exact_count, spec)
        solve = "verifier.solve_found" if expected else "verifier.solve_empty"
        result = tr.call(solve, op, root, _solve, spec, expected)
        tr.call("verifier.forward", op, root, _forward_all, result.tuples)
        if result.tuples:
            tr.call("verifier.orbit", op, root, mf.orbit_count, result.tuples, classes)
        report = tr.call("verifier.report", op, root, mf.verify_spectrum, spec)
    finally:
        tr.close(root)
    tr.count("verifier.starts", result.starts)
    tr.count("verifier.converged", result.converged)
    tr.count("verifier.duplicates", result.deduplicated)
    tr.count("verifier.tuples", len(result.tuples))
    return report


# --- output ------------------------------------------------------------------------

def count_out(r) -> dict:
    return {
        "s_d": r.s_d,
        "e_I0": r.e_I0,
        "mc_count": r.mc_count,
        "mp_count": r.mp_count,
        "engines": r.engines,
        "zero_sum_subsets": r.zero_sum_subsets,
        "lattice_partitions": r.lattice_partitions,
        "kappa_sizes": list(r.kappa_sizes),
    }


def verify_out(r) -> dict:
    return {
        "status": r.status,
        "found_tuples": r.found_tuples,
        "mc_orbits": r.mc_orbits,
        "tuples": [[[z.real, z.imag] for z in t.zeta] for t in r.tuples],
    }


def attempt(fn, *args):
    """Run one operation; an exception is its outcome, not the run's end."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failed operation is counted, the loop goes on
        return None, f"{type(exc).__name__}: {exc}"


def main() -> int:
    job = json.load(sys.stdin)
    if not Path(mf.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        print(f"multfiber imported from {mf.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    kind, docs = job["kind"], job["docs"]
    plain = count_op if kind == "count" else verify_op
    traced = traced_count if kind == "count" else traced_verify
    to_out = count_out if kind == "count" else verify_out

    plain(job["warmup"])  # lazy imports and first-call set-up, not timed
    numpy_loaded = "numpy" in sys.modules

    runs = []  # (round, traced, slot, latency_s, burst_s, report, error)
    rounds = []  # per traced round: spans and counters
    reference: list[float] = []
    start = last_reference = timed_reference(reference)

    def catch_up():
        """One burst per REFERENCE_EVERY_S that passed, so that the bursts
        sample the machine evenly in time, also around long operations."""
        nonlocal last_reference
        for _ in range(int((perf_counter() - last_reference) / REFERENCE_EVERY_S)):
            last_reference = timed_reference(reference)

    n = 0
    while True:
        tr = Tracer() if job["trace"] and n % 2 else None
        for slot, doc in enumerate(docs):
            catch_up()
            last_reference = timed_reference(reference)
            t0 = perf_counter()
            if tr is None:
                report, error = attempt(plain, doc)
            else:
                report, error = attempt(traced, tr, n * len(docs) + slot, doc)
            runs.append((n, tr is not None, slot, perf_counter() - t0, reference[-1], report, error))
        if tr is not None:
            rounds.append({"round": n, "spans": tr.spans, "counters": tr.counters})
        n += 1
        # in trace mode a traced round always follows an untraced one
        if perf_counter() - start >= job["seconds"] and not (job["trace"] and n % 2):
            break
    wall = perf_counter() - start - sum(reference[1:])  # the first burst ran before start
    catch_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = [
        {
            "round": rnd,
            "traced": was_traced,
            "slot": slot,
            "latency_s": latency,
            "burst_s": burst,
            "out": None if report is None else to_out(report),
            "error": error,
        }
        for rnd, was_traced, slot, latency, burst, report, error in runs
    ]
    json.dump(
        {
            "multfiber": mf.__file__,
            "numpy_loaded": numpy_loaded,
            "wall_s": wall,
            "reference_s": reference,
            "peak_rss_mb": peak_rss_mb,
            "ops": ops,
            "traced_rounds": rounds,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
