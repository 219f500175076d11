"""Benchmark for counting and verifying fibers of the multiplier map.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count-rich --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads are ``count-rich``, ``count-generic`` and ``verify`` (see
``workloads.py`` and README.md).  The inputs are drawn from ``--seed`` by the
benchmark itself; the program, imported from the checkout's ``src``, gets
only JSON spectrum documents, in a worker process of its own (``worker.py``).
Every output is checked against ``oracle.py``, and every run also checks that
the checks reject deliberately wrong copies of real outputs.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, and the spans go to ``perfbench/out/``.  The last line
of stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

LAUNCHES = 5  # fresh interpreters before and again after the worker
# The times of operations and layers are scaled to a machine on which one
# reference burst (worker.py) takes this long.  Each operation's latency is
# divided by (its own preceding burst / REFERENCE_NOMINAL_S), throughput and
# layer times by (mean burst of the pass / REFERENCE_NOMINAL_S): a median
# picks single operations, so it needs their own speed; a total needs the
# mean.  Fresh-interpreter figures (setup_s, import.multfiber_ms) are plain
# wall time: start-up is mostly loading and linking, which does not follow
# the interpreter's speed.
REFERENCE_NOMINAL_S = 0.0005
UNSCALED = {"setup_s", "import.multfiber_ms"}
WORKER_TIMEOUT_S = 150
KIND = {"count-rich": "count", "count-generic": "count", "verify": "verify"}
SMALL = {  # the one small call a fresh interpreter makes, and the warm-up
    "count": {"d": 4, "mu": ["1", "-1", "2", "-2"]},
    "verify": {"d": 3, "mu": ["1", "2", "-3"]},
}
CALL = {"count": "fiber_report", "verify": "verify_spectrum"}
IMPORT_CODE = "import time; t = time.perf_counter(); import multfiber; print(time.perf_counter() - t)"

PER_LAYER_UNITS = {
    "import.multfiber_ms": "ms",
    "import.numpy_loaded": "count",
    "spectrum.parse_ms": "ms",
    "lattice.scan_ms": "ms",
    "lattice.masks_scanned": "count",
    "lattice.zero_sum_subsets": "count",
    "lattice.cover_ms": "ms",
    "lattice.partitions": "count",
    "counting.subspectra_ms": "ms",
    "counting.refinement_ms": "ms",
    "counting.closed_form_ms": "ms",
    "counting.discrete_ms": "ms",
    "counting.report_self_ms": "ms",
    "verifier.solve_found_ms": "ms",
    "verifier.solve_empty_ms": "ms",
    "verifier.starts": "count",
    "verifier.converged": "count",
    "verifier.duplicates": "count",
    "verifier.tuples": "count",
    "verifier.tuples_per_start": "ratio",
    "verifier.forward_ms": "ms",
    "verifier.orbit_ms": "ms",
    "verifier.exact_count_ms": "ms",
    "trace.overhead_ms": "ms",
}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def fresh_launches(code: str) -> list[tuple[float, str]]:
    """Wall time and stdout of serial fresh interpreters running ``code``.

    One launch first, untimed, so that byte-code caches exist as they do for
    any user after the first run.
    """
    out = []
    for n in range(LAUNCHES + 1):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
        )
        wall = perf_counter() - t0
        if done.returncode:
            raise RuntimeError(f"fresh interpreter failed:\n{done.stderr}")
        if n:
            out.append((wall, done.stdout))
    return out


def run_worker(job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode:
        raise RuntimeError(f"worker failed:\n{done.stderr}")
    return json.loads(done.stdout)


# --- checks -------------------------------------------------------------------------

def anchor_of(exp: dict) -> tuple:
    """(s_d, mc_count, mp_count) as the oracle derives them."""
    s_d, order = exp["s_d"], exp["group_order"]
    mc = (exp["d"] - 1) * s_d // order
    return (s_d, mc, s_d // order if exp["mp_defined"] else None)


def problems_of(kind: str, op: dict, exp: dict, out: dict) -> list[str]:
    if kind == "count":
        return oracle.check_count(out, exp, op["anchor"])
    mu, lam = oracle.complex_spectrum(op["mu"])
    return oracle.check_verify(out, exp, mu, lam)


def with_complex_tuples(out: dict) -> dict:
    return {**out, "tuples": [[complex(*z) for z in t] for t in out["tuples"]]}


def self_test(kind: str, ops, exps, records) -> list[str]:
    """Mutants of a real passing output that the checks fail to reject."""
    mutants = oracle.count_mutants if kind == "count" else oracle.verify_mutants
    for rec in records:
        out = rec["out"]
        if rec["problems"] or (kind == "verify" and len(out["tuples"]) < 3):
            continue
        op, exp = ops[rec["slot"]], exps[rec["slot"]]
        return [name for name, bad in mutants(out) if not problems_of(kind, op, exp, bad)]
    return ["no passing output to mutate"]


# --- metrics ---------------------------------------------------------------------------

def span_totals_ms(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, start, end, _parent, _op in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) * 1000
    return totals


def layer_metrics(traced: dict, untraced_ms: float) -> dict[str, float]:
    """Per-layer figures of one traced round; ``untraced_ms`` is its twin's total."""
    ms = span_totals_ms(traced["spans"])
    c = traced["counters"]
    g = lambda name: ms.get(name, 0.0)  # noqa: E731
    parts = ("lattice.enumerate", "counting.subspectra", "counting.refinement",
             "counting.closed_form", "counting.discrete")
    report_ms = g("counting.report") + g("verifier.report")
    starts = c.get("verifier.starts", 0)
    return {
        "spectrum.parse_ms": g("spectrum.parse"),
        "lattice.scan_ms": g("lattice.scan"),
        "lattice.masks_scanned": c.get("lattice.masks_scanned", 0),
        "lattice.zero_sum_subsets": c.get("lattice.zero_sum_subsets", 0),
        "lattice.cover_ms": g("lattice.enumerate") - g("lattice.scan"),
        "lattice.partitions": c.get("lattice.partitions", 0),
        "counting.subspectra_ms": g("counting.subspectra"),
        "counting.refinement_ms": g("counting.refinement"),
        "counting.closed_form_ms": g("counting.closed_form"),
        "counting.discrete_ms": g("counting.discrete"),
        "counting.report_self_ms": g("counting.report") - sum(g(p) for p in parts)
        if "counting.report" in ms else 0.0,
        "verifier.solve_found_ms": g("verifier.solve_found"),
        "verifier.solve_empty_ms": g("verifier.solve_empty"),
        "verifier.starts": starts,
        "verifier.converged": c.get("verifier.converged", 0),
        "verifier.duplicates": c.get("verifier.duplicates", 0),
        "verifier.tuples": c.get("verifier.tuples", 0),
        "verifier.tuples_per_start": c.get("verifier.tuples", 0) / starts if starts else 0.0,
        "verifier.forward_ms": g("verifier.forward"),
        "verifier.orbit_ms": g("verifier.orbit"),
        "verifier.exact_count_ms": g("verifier.exact_count"),
        # the end-to-end calls of the traced round minus the same calls untraced
        "trace.overhead_ms": g("spectrum.parse") + report_ms - untraced_ms,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    kind = KIND[workload]
    ops = workloads.build(workload, seed)
    exps = [oracle.expected_counts(op["mu"]) for op in ops]
    for op, exp in zip(ops, exps):
        if op["anchor"] is not None and anchor_of(exp)[: len(op["anchor"])] != op["anchor"]:
            raise RuntimeError(f"oracle disagrees with the hand anchor of {op['label']}")

    # Fresh interpreters run both before and after the timed pass, so that
    # the set-up figure sees the same stretch of machine time as the others.
    code = IMPORT_CODE if trace else (
        f"import multfiber as mf; mf.{CALL[kind]}(mf.spectrum_from_obj({json.dumps(SMALL[kind])}))"
    )
    launches = fresh_launches(code)
    result = run_worker({
        "src": str(SRC), "kind": kind, "docs": [op["doc"] for op in ops],
        "warmup": SMALL[kind], "seconds": seconds, "trace": trace,
    })
    launches += fresh_launches(code)

    records = result["ops"]
    failures = {}  # slot label -> first problem seen
    for rec in records:
        op = ops[rec["slot"]]
        if rec["error"] is not None:
            rec["problems"] = [rec["error"]]
        else:
            if kind == "verify":
                rec["out"] = with_complex_tuples(rec["out"])
            rec["problems"] = problems_of(kind, op, exps[rec["slot"]], rec["out"])
        if rec["problems"]:
            failures.setdefault(op["label"], rec["problems"][0])
    unexpected = {k: v for k, v in failures.items() if k not in workloads.KNOWN_FAULTS}
    vacuous = self_test(kind, ops, exps, records)
    failed = sum(1 for rec in records if rec["problems"])
    passed = len(records) - failed

    # > 1 when the machine ran slower than nominal during this run
    slowdown = statistics.fmean(result["reference_s"]) / REFERENCE_NOMINAL_S
    if trace:
        by_round = {}
        for rec in records:
            if not rec["traced"]:
                by_round[rec["round"]] = by_round.get(rec["round"], 0.0) + rec["latency_s"] * 1000
        per_round = [layer_metrics(tr, by_round[tr["round"] - 1]) for tr in result["traced_rounds"]]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["import.multfiber_ms"] = statistics.median(float(out) * 1000 for _, out in launches)
        values["import.numpy_loaded"] = int(result["numpy_loaded"])
        raw = {name: int(values[name]) if unit == "count" else values[name]
               for name, unit in PER_LAYER_UNITS.items()}
        scaled = {
            name: v / slowdown if PER_LAYER_UNITS[name] == "ms" and name not in UNSCALED else v
            for name, v in raw.items()
        }
        units = PER_LAYER_UNITS
    else:
        raw = {
            "spectra_per_s": passed / result["wall_s"],
            "latency_p50_ms": statistics.median(rec["latency_s"] for rec in records) * 1000,
            "setup_s": statistics.median(wall for wall, _ in launches),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        scaled = {
            "spectra_per_s": raw["spectra_per_s"] * slowdown,
            "latency_p50_ms": statistics.median(
                rec["latency_s"] / rec["burst_s"] for rec in records
            ) * REFERENCE_NOMINAL_S * 1000,
            "setup_s": raw["setup_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = {"spectra_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: {"value": scaled[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        spans = [
            {"round": tr["round"], "name": name, "start": start, "end": end,
             "parent": parent, "op": op}
            for tr in result["traced_rounds"]
            for name, start, end, parent, op in tr["spans"]
        ]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": 1 + max(rec["round"] for rec in records),
        "correct": not unexpected and not vacuous,
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "slot_median_ms": {
            op["label"]: statistics.median(
                r["latency_s"] * 1000 for r in records if r["slot"] == i and not r["traced"]
            )
            for i, op in enumerate(ops)
        },
        "unexpected_failures": unexpected,
        "checks_that_accept_a_mutant": vacuous,
        "multfiber": result["multfiber"],
        "slowdown": slowdown,
        "unscaled": raw,
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(summary, indent=1))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multfiber" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'multfiber'} is missing", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for res in results:
        figures = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"{res['workload']}: {figures}; attempted {res['attempted']}, failed {res['failed']}; "
              f"machine slowdown {res['slowdown']:.4f}")
        for label, problem in res["failures"].items():
            print(f"  failed {label}: {problem}")
        if not res["correct"]:
            print(f"  NOT CORRECT: unexpected {res['unexpected_failures']}, "
                  f"mutants accepted {res['checks_that_accept_a_mutant']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
