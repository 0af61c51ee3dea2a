"""Command-line front end: coin inspection, periods, simulation, sweeps.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 period-method
disagreement, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import coins as _coins
from . import period as _period
from . import verify as _verify
from . import walk as _walk
from .errors import LivelyWalkError, OutOfRange
from .exactnum import DEFAULT_TOL

PERM_LABELS = tuple(f"P{i}" for i in range(1, 7))
SIGN_PAIRS = ("++", "+-", "-+", "--")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", type=str, default=None, help="write the document to this path instead of stdout")


def _add_period_bounds(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tmax", type=int, default=_period.TMAX_DEFAULT, help="brute-force step bound")
    parser.add_argument("--qmax", type=int, default=_period.QMAX_DEFAULT, help="denominator bound for rational angles")


def _count(text: str) -> int:
    """argparse type: an integer count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite tolerance of at least 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _read_document(path: str, what: str, parse, parser):
    """``parse(doc)`` of the JSON file at path; bad JSON or a rejected doc is a usage error."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            parser.error(f"cannot parse {what} {path}: {exc}")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        parser.error(f"{what} {path} does not match the schema: {exc}")


def _state_from_json(doc) -> np.ndarray:
    amps = doc["amplitudes"] if isinstance(doc, dict) else doc
    return np.array([complex(re, im) for re, im in amps])


class _SignPair(argparse.Action):
    """Store the --signs pair.  Python 3.11's argparse strips the pair -- out
    of --signs=-- before storing it, which leaves an empty list: read that
    as --."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def _add_coin_spec(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--perm", choices=PERM_LABELS, help="permutation matrix coin")
    source.add_argument("--grover", choices=PERM_LABELS, help="Grover-type coin (2/3)J - P")
    source.add_argument("--family", choices=_coins.FAMILIES, help="parametric family")
    source.add_argument("--matrix-file", type=str, help="path to a coin JSON document")
    parser.add_argument("--negate", action="store_true", help="negate a --grover coin")
    angle = parser.add_mutually_exclusive_group()
    angle.add_argument("--theta", type=float, help="family angle in radians")
    angle.add_argument("--theta-frac", type=str, help="family angle as M/Q meaning theta = 2*pi*M/Q")
    angle.add_argument("--rational", type=str, help="rational parameter r for the exact constructor")
    parser.add_argument("--signs", choices=SIGN_PAIRS, action=_SignPair,
                        help="sign pair for the exact rational constructor (default ++)")


def _parse_coin(args, parser) -> _coins.Coin3:
    for flag, given, source, reader in (
        ("--negate", args.negate, "--grover", args.grover),
        ("--theta", args.theta is not None, "--family", args.family),
        ("--theta-frac", args.theta_frac is not None, "--family", args.family),
        ("--rational", args.rational is not None, "--family", args.family),
        ("--signs", args.signs is not None, "--rational", args.rational),
    ):
        if given and reader is None:
            parser.error(f"{flag} is read only with {source}")
    if args.perm:
        return _coins.perm_matrix(int(args.perm[1]))
    if args.grover:
        return _coins.grover_type(int(args.grover[1]), negate=args.negate)
    if args.matrix_file is not None:
        return _read_document(args.matrix_file, "coin file", _coins.coin_from_json, parser)
    if args.theta is not None:
        return _coins.coin_from_theta(args.family, args.theta)
    if args.theta_frac is not None:
        try:
            frac = Fraction(args.theta_frac)
        except (ValueError, ZeroDivisionError):
            parser.error(f"cannot parse --theta-frac {args.theta_frac!r} as M/Q")
        return _coins.coin_from_theta_frac(args.family, frac)
    if args.rational is None:
        parser.error("--family needs one of --theta, --theta-frac, --rational")
    try:
        r = Fraction(args.rational)
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse --rational {args.rational!r} as a rational number")
    s1, s2 = (1 if sign == "+" else -1 for sign in args.signs or "++")
    return _coins.coin_from_rational(args.family, r, s1, s2)


def _output(args):
    """A context manager that yields the --output file, opened for writing, or stdout."""
    return open(args.output, "w") if args.output is not None else contextlib.nullcontext(sys.stdout)


def _emit(text: str, args) -> None:
    with _output(args) as out:
        out.write(text)


def _scalar_json(v):
    if isinstance(v, Fraction):
        return _coins._frac_str(v)
    c = complex(v)
    return c.real if abs(c.imag) < 1e-12 else [c.real, c.imag]


def cmd_coin(args, parser) -> int:
    coin = _parse_coin(args, parser)
    cls = _coins.classify(coin, tol=args.tol)  # a named family is checked at --tol
    linear_sum = {"basis": cls.basis, "x": _scalar_json(cls.x), "y": _scalar_json(cls.y), "z": _scalar_json(cls.z)}
    doc = {
        "coin": _coins.coin_to_json(coin),
        "classification": {
            "family": cls.family,
            **linear_sum,
            "is_permutation": cls.is_permutation,
            "is_grover_type": cls.is_grover_type,
            "is_rational": cls.is_rational,
        },
        "linear_sum": linear_sum,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args)
    return 0


def _methods_of(args, parser):
    """The --methods list: at least one known method, none twice."""
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        parser.error(f"--methods names no method; choose from {', '.join(_period.METHODS)}")
    for m in methods:
        if m not in _period.METHODS:
            parser.error(f"unknown method {m!r}; choose from {', '.join(_period.METHODS)}")
    for i, m in enumerate(methods):
        if m in methods[:i]:
            parser.error(f"method {m!r} is named twice in --methods")
    return methods


def cmd_period(args, parser) -> int:
    coin = _parse_coin(args, parser)
    spec = _walk.WalkSpec(n=args.n, a=args.a, coin=coin)
    cv = _period.cross_validate(spec, tmax=args.tmax, qmax=args.qmax, methods=_methods_of(args, parser))
    _emit(json.dumps(_period.report_json(cv), indent=2) + "\n", args)
    return 0 if cv.agreement else 3


def cmd_simulate(args, parser) -> int:
    coin = _parse_coin(args, parser)
    spec = _walk.WalkSpec(n=args.n, a=args.a, coin=coin)
    if args.state_file is not None and (args.start is not None or args.coinstate is not None):
        parser.error("give either --start/--coinstate or --state-file, not both")
    if args.state_file is not None:
        psi0 = _read_document(args.state_file, "state file", _state_from_json, parser)
    else:
        if args.start is None or args.coinstate is None:
            parser.error("simulate needs --start and --coinstate, or --state-file")
        psi0 = _walk.basis_state(spec.n, args.start, args.coinstate)
    _walk._checked_state(spec, psi0, args.tmax)  # before --output opens: a failed call leaves it intact
    with _output(args) as out:  # written one time step at a time
        _walk.write_distribution_csv(spec, psi0, args.tmax, out)
    return 0


def _int_list(text: str, parser, what: str):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"cannot parse {what} list {text!r}")


def _theta_values(args, parser):
    """The --theta-list or --theta-grid angles, in radians."""
    if args.theta_list is not None:
        try:
            return [float(v) for v in args.theta_list.split(",") if v.strip()]
        except ValueError:
            parser.error(f"cannot parse --theta-list {args.theta_list!r}")
    try:
        start, stop, count = args.theta_grid.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        parser.error(f"--theta-grid wants START:STOP:COUNT, got {args.theta_grid!r}")
    if count < 1:
        parser.error(f"--theta-grid COUNT must be >= 1, got {count}")
    for end in (start, stop):
        if not math.isfinite(end):
            raise OutOfRange(f"theta must be finite, got {end}")
    return np.linspace(start, stop, count)


def cmd_table(args, parser) -> int:
    ns = _int_list(args.n_list, parser, "n")
    a_values = _int_list(args.a_list, parser, "a")
    methods = _methods_of(args, parser)
    if args.rational_grid:  # exact fractions keep the analytic route exact
        coins = [_coins.coin_from_theta_frac(args.family, Fraction(m, q))
                 for q in range(1, args.rational_grid + 1) for m in range(q) if math.gcd(m, q) == 1]
    else:
        coins = [_coins.coin_from_theta(args.family, v) for v in _theta_values(args, parser)]
    reports = []
    for n in ns:
        for a in a_values:
            for coin in coins:
                spec = _walk.WalkSpec(n=n, a=a, coin=coin)
                cv = _period.cross_validate(spec, tmax=args.tmax, qmax=args.qmax, methods=methods)
                reports.append(_period.report_json(cv))
    _emit(json.dumps(reports, indent=2) + "\n", args)
    return 0 if all(r["agreement"] for r in reports) else 3


def cmd_verify(args, parser) -> int:
    names = _verify.SUITES if args.suite == "all" else (args.suite,)
    if args.suite not in _verify.SAMPLED_SUITES + ("all",):
        for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
            if value is not None:
                parser.error(f"{flag} is not read by --suite {args.suite}, which is not sampled")
    lines = []
    all_ok = True
    for name in names:
        sampled = name in _verify.SAMPLED_SUITES
        result = _verify.run_suite(name, seed=args.seed if sampled else None,
                                   samples=args.samples if sampled else None)
        all_ok = all_ok and result.passed
        lines.append(
            f"{'PASS' if result.passed else 'FAIL'} {result.name}: "
            f"{result.checks - result.failures}/{result.checks} checks"
            + (f" (worst defect {result.worst:.3e})" if result.worst else "")
        )
    _emit("\n".join(lines) + "\n", args)
    return 0 if all_ok else 4


def _add_command(sub, name: str, handler, help: str) -> argparse.ArgumentParser:
    """The subparser of one command; ``args.run(args)`` calls handler(args, subparser),
    so a usage error found by the handler prints that command's usage line."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(run=functools.partial(handler, parser=parser))
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after that.

    Building it costs about as much as a whole `period` call, so in-process
    callers of :func:`main` (tests, notebooks, the benchmark) build it once;
    a shell command still builds one per process.  ``parse_args`` keeps no
    state between calls, so the shared parser must not be modified.
    """
    parser = argparse.ArgumentParser(
        prog="livelywalk",
        description="Three-state lively quantum walks on cycles with permutative orthogonal coins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coin = _add_command(sub, "coin", cmd_coin, "construct and classify a coin")
    _add_coin_spec(p_coin)
    p_coin.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="orthogonality/unitarity tolerance")
    _add_output(p_coin)

    p_period = _add_command(sub, "period", cmd_period, "compute the walk period by all methods")
    _add_coin_spec(p_period)
    p_period.add_argument("--n", type=int, required=True)
    p_period.add_argument("--a", type=int, default=0)
    p_period.add_argument("--methods", type=str, default=",".join(_period.METHODS))
    _add_period_bounds(p_period)
    _add_output(p_period)

    p_sim = _add_command(sub, "simulate", cmd_simulate, "emit t,position,probability CSV")
    _add_coin_spec(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--a", type=int, default=0)
    p_sim.add_argument("--start", type=int, help="start vertex of a localized state")
    p_sim.add_argument("--coinstate", type=int, help="coin state of a localized state")
    p_sim.add_argument("--state-file", type=str, help="JSON file with an amplitudes array")
    p_sim.add_argument("--tmax", type=int, required=True, help="largest time step to emit")
    _add_output(p_sim)

    p_table = _add_command(sub, "table", cmd_table, "period reports over a parameter sweep")
    p_table.add_argument("--family", choices=_coins.FAMILIES, required=True)
    angles = p_table.add_mutually_exclusive_group(required=True)
    angles.add_argument("--theta-list", type=str, help="comma-separated angles in radians")
    angles.add_argument("--theta-grid", type=str, help="START:STOP:COUNT grid of angles")
    angles.add_argument("--rational-grid", type=_count,
                        help="all theta = 2*pi*m/q with q <= bound and gcd(m, q) = 1")
    p_table.add_argument("--n-list", type=str, required=True)
    p_table.add_argument("--a-list", type=str, default="0")
    p_table.add_argument("--methods", type=str, default=",".join(_period.METHODS))
    _add_period_bounds(p_table)
    _add_output(p_table)

    p_verify = _add_command(sub, "verify", cmd_verify, "run a sampled invariant suite")
    p_verify.add_argument("--suite", choices=_verify.SUITES + ("all",), required=True)
    p_verify.add_argument("--samples", type=_count, default=None,
                          help="samples per sampled suite, >= 1; --suite all passes it to every suite "
                               "but period-consistency, which is exhaustive")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the sampled suites (default 0); --suite all passes it to every "
                               "suite but period-consistency")
    _add_output(p_verify)

    return parser


def _glue_signs(argv: list) -> list:
    """Join a sign pair to the --signs before it: argparse would read a
    separate -+ or -- as an option or as the end of the options."""
    out = []
    for arg in argv:
        if out and out[-1] == "--signs" and arg in SIGN_PAIRS:
            out[-1] = f"--signs={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_signs(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.run(args)
    except (LivelyWalkError, OSError, MemoryError) as exc:  # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
