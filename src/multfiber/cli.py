"""Command-line surface: JSON in, JSON out.

Subcommands: ``count`` (the recursion and the closed form, checked to agree),
``lattice`` (dump the zero-sum partitions), ``polyfam`` (the coarsening
polynomial table), ``identity-check`` (the vanishing sum over size
vectors), ``verify`` (the numerical oracle) and ``gen`` (seeded spectrum
generation).  Counts are serialized as decimal strings so arbitrary
precision survives JSON.  Exit codes: 0 success, 1 invalid input (an
``InputError``, usage errors included), 2 internal consistency violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, polyfam
from .errors import InputError, InternalCheckError
from .lattice import enumerate_lattice
from .spectrum import generate, scalars_from_obj, spectrum_from_obj, spectrum_to_obj


class _Parser(argparse.ArgumentParser):
    # usage problems are invalid input (exit 1), not internal errors
    def error(self, message):
        raise InputError(message)


def _read_json(source: str):
    """Inline JSON (starts with '{' or '['), '-' for stdin, else a path."""
    text = source
    try:
        if source == "-":
            text = sys.stdin.read()
        elif not source.lstrip().startswith(("{", "[")):
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {source}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except ValueError:  # an integer past the int-to-string digit limit
        raise InputError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        )
    except RecursionError:
        raise InputError("invalid JSON: arrays or objects nested too deeply")


def _emit(document: dict, path: str | None) -> None:
    text = json.dumps(document, indent=2) + "\n"
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}")
    else:
        sys.stdout.write(text)


def _cmd_count(args) -> int:
    spec = spectrum_from_obj(_read_json(args.input))
    report = counting.fiber_report(spec)
    _emit(
        {
            "spectrum": spectrum_to_obj(spec),
            "d": report.d,
            "s_d": str(report.s_d),
            "e_I0": str(report.e_I0),
            "mc_count": str(report.mc_count),
            "mp_count": None if report.mp_count is None else str(report.mp_count),
            "kappa_sizes": list(report.kappa_sizes),
            "gw_flags": list(report.gw_flags),
            "lattice_partitions": report.lattice_partitions,
            "zero_sum_subsets": report.zero_sum_subsets,
            "engines": {k: str(v) for k, v in report.engines.items()},
            "agreement": True,
        },
        args.output,
    )
    return 0


def _cmd_lattice(args) -> int:
    spec = spectrum_from_obj(_read_json(args.input))
    lat = enumerate_lattice(spec)
    _emit(
        {
            "spectrum": spectrum_to_obj(spec),
            "d": lat.d,
            "partitions": [p.index_lists() for p in lat.partitions],
            "proper_count": len(lat.proper),
            "zero_sum_subsets": lat.zero_sum_count,
        },
        args.output,
    )
    return 0


def _cmd_polyfam(args) -> int:
    table = [
        {
            "l": l,
            "k": k,
            "coefficients": [str(c) for c in poly.coefficients],
            "text": poly.text(),
        }
        for l, k, poly in polyfam.collapsed_table(args.max_l)
    ]
    _emit({"max_l": args.max_l, "table": table}, args.output)
    return 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad size list {text!r}; expected e.g. 2,2,3")
    if len(sizes) < 2 or any(s < 2 for s in sizes):
        raise InputError("need at least two block sizes, each >= 2")
    return sizes


def _cmd_identity_check(args) -> int:
    if args.sizes:
        total = polyfam.vanishing_sum(_parse_sizes(args.sizes))
        _emit({"sum": str(total), "ok": total == 0}, args.output)
        return 0 if total == 0 else 2
    checked, failures = polyfam.vanishing_sweep(args.max_l, args.max_size)
    failures = [{"sizes": list(sizes), "sum": str(total)} for sizes, total in failures]
    _emit({"checked": checked, "failures": failures, "ok": not failures}, args.output)
    return 0 if not failures else 2


def _cmd_verify(args) -> int:
    from .verifier import SolverConfig, verify_spectrum  # loads numpy

    spec = spectrum_from_obj(_read_json(args.input))
    written = spectrum_to_obj(spec)  # refuses an unwritable spectrum before the solve
    overrides = {
        name: getattr(args, name)
        for name in ("eps_mult", "budget_factor", "seed", "max_degree")
        if getattr(args, name) is not None
    }
    report = verify_spectrum(spec, SolverConfig(**overrides))
    _emit(
        {
            "spectrum": written,
            "d": report.d,
            "found_tuples": str(report.found_tuples),
            "expected_tuples": str(report.expected_tuples),
            "mc_orbits": str(report.mc_orbits),
            "expected_orbits": str(report.expected_orbits),
            "max_multiplier_error": report.max_multiplier_error,
            "starts": report.starts,
            "converged": report.converged,
            "deduplicated": report.deduplicated,
            "status": report.status,
            "near_collisions": [list(p) for p in report.near_collisions],
            "tuples": [
                {
                    "zeta": [[v.real, v.imag] for v in t.zeta],
                    "residual": t.residual,
                }
                for t in report.tuples
            ],
        },
        args.output,
    )
    return 0


def _cmd_gen(args) -> int:
    plan_obj = _read_json(args.plan)
    if not isinstance(plan_obj, list):
        raise InputError("plan must be a JSON list of blocks")
    plan = []
    for item in plan_obj:
        if type(item) is int:  # JSON true/false decode as bool, an int subclass
            plan.append(item)
        elif isinstance(item, list):
            plan.append(scalars_from_obj(item, "a plan block"))
        else:
            raise InputError("plan items must be integers (sizes) or target lists")
    spec = generate(plan, seed=args.seed, exact=args.exact)
    _emit(spectrum_to_obj(spec), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="multfiber", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, with_input=True):
        if with_input:
            p.add_argument("input", help="spectrum JSON: path, '-' for stdin, or inline")
        p.add_argument("--output", "-o", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("count", help="all fiber counts with agreement check")
    add_io(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("lattice", help="dump the zero-sum partition lattice")
    add_io(p)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("polyfam", help="coarsening polynomial table")
    add_io(p, with_input=False)
    p.add_argument("--max-l", type=int, default=5)
    p.set_defaults(func=_cmd_polyfam)

    p = sub.add_parser("identity-check", help="vanishing sum over size vectors")
    add_io(p, with_input=False)
    p.add_argument("--sizes", help="comma-separated block sizes, e.g. 2,2,3")
    p.add_argument("--max-l", type=int, default=5, help="sweep: max block count")
    p.add_argument("--max-size", type=int, default=4, help="sweep: max block size")
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("verify", help="numerical oracle for the counts")
    add_io(p)
    p.add_argument("--eps-mult", type=float, default=None)
    p.add_argument("--budget-factor", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a spectrum from a block plan")
    add_io(p, with_input=False)
    p.add_argument("--plan", required=True, help='JSON, e.g. [["1","-1"],["2","-2"]] or [4]')
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="reject accidental zero sums")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
