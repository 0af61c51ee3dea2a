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
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


def _read_text(path: str, what: str, parser) -> str:
    """The text of the file at path; a file that is not UTF-8 is a usage error."""
    with open(path) as fh:
        try:
            return fh.read()
        except ValueError as exc:  # not UTF-8
            parser.error(f"cannot parse {what} {path}: {exc}")


def _read_document(path: str, what: str, parse, parser, text=None):
    """``parse(doc)`` of the JSON file at path, or of its `text` when the
    caller has read it; bad JSON or a rejected doc is a usage error."""
    try:
        doc = json.loads(_read_text(path, what, parser) if text is None else text)
    except ValueError as exc:  # not JSON
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


#: most coins `_coin_entry` keeps; a new coin past it drops the least recently used
COIN_MEMO_CAP = 256


@dataclass
class _CoinEntry:
    """A coin `_coin_entry` kept, with a read-only matrix, and its report
    fragment: `coin_to_json` as `_json_text` writes it at depth 0, rendered
    on first use."""

    coin: _coins.Coin3

    @functools.cached_property
    def fragment(self) -> _Fragment:
        return _Fragment(_json_text(_coins.coin_to_json(self.coin)))


@functools.lru_cache(maxsize=COIN_MEMO_CAP, typed=True)
def _coin_entry(build, *key) -> _CoinEntry:
    """The entry of build(*key)'s coin, built once per key; a build that
    raises is never kept.  `build` is a cli function, so a rebound `coins`
    constructor keeps the key; `typed` keeps the angle 0.5 apart from 1/2."""
    coin = build(*key)
    coin.matrix.flags.writeable = False  # shared by every later call, as SPECIAL_COINS are
    return _CoinEntry(coin)


def _parse_coin(args, parser) -> _CoinEntry:
    """The coin the flags name, built once per source and process: a later
    call with the same flags, or the same coin file path and text, gets the
    same entry, so the coin is classified and its fragment written once."""
    for flag, given, source, reader in (
        ("--negate", args.negate, "--grover", args.grover),
        ("--theta", args.theta is not None, "--family", args.family),
        ("--theta-frac", args.theta_frac is not None, "--family", args.family),
        ("--rational", args.rational is not None, "--family", args.family),
        ("--signs", args.signs is not None, "--rational", args.rational),
    ):
        if given and reader is None:
            parser.error(f"{flag} is read only with {source}")
    text = None if args.matrix_file is None else _read_text(args.matrix_file, "coin file", parser)
    return _coin_entry(_build_coin, parser, args.perm, args.grover, args.negate, args.family, args.theta,
                       args.theta_frac, args.rational, args.signs, args.matrix_file, text)


def _build_coin(parser, perm, grover, negate, family, theta, theta_frac, rational, signs, matrix_file,
                text) -> _coins.Coin3:
    """The coin of the checked flags; `text` is the --matrix-file's, and a
    bad value is a usage error of `parser`'s command.  `table` passes each
    angle as theta, a float, or theta_frac, a Fraction."""
    if perm:
        return _coins.perm_matrix(int(perm[1]))
    if grover:
        return _coins.grover_type(int(grover[1]), negate=negate)
    if matrix_file is not None:
        return _read_document(matrix_file, "coin file", _coins.coin_from_json, parser, text)
    if theta is not None:
        return _coins.coin_from_theta(family, theta)
    if theta_frac is not None:
        try:
            frac = Fraction(theta_frac)
        except (ValueError, ZeroDivisionError):
            parser.error(f"cannot parse --theta-frac {theta_frac!r} as M/Q")
        return _coins.coin_from_theta_frac(family, frac)
    if rational is None:
        parser.error("--family needs one of --theta, --theta-frac, --rational")
    try:
        r = Fraction(rational)
    except (ValueError, ZeroDivisionError):
        parser.error(f"cannot parse --rational {rational!r} as a rational number")
    s1, s2 = (1 if sign == "+" else -1 for sign in signs or "++")
    return _coins.coin_from_rational(family, r, s1, s2)


#: the text json.dumps writes for each scalar type
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: {True: "true", False: "false"}.get,
                 type(None): lambda _: "null",
                 float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v)}  # NaN, Infinity


@dataclass(frozen=True)
class _Fragment:
    """A document's text as `_json_text` writes it at depth 0; `_json_text`
    writes it as is, re-indented to the depth it is placed at."""

    text: str


def _json_text(doc, indent: str = "\n") -> str:
    """``json.dumps(doc, indent=2)``, or its TypeError, in less time: the
    stdlib uses its C encoder only when indent is None.  Each scalar's text
    is looked up by its type, and each container's items joined once.  Keys
    must be str, as in every document the CLI writes; a `_Fragment` is
    written as its text."""
    inner, scalar, quote, items = indent + "  ", _JSON_SCALARS.get, encode_basestring_ascii, []
    if isinstance(doc, dict):
        text = "{}"
        for k, v in doc.items():
            write = scalar(type(v))
            items.append(f"{quote(k)}: {write(v) if write else _json_text(v, inner)}")
    elif isinstance(doc, (list, tuple)):
        text = "[]"
        for v in doc:
            write = scalar(type(v))
            items.append(write(v) if write else _json_text(v, inner))
    elif isinstance(doc, _Fragment):  # no JSON string holds a raw newline
        return doc.text.replace("\n", indent)
    else:  # a scalar, a subclass of str, int or float (numpy's float64), or no JSON value
        kind = type(doc) if type(doc) in _JSON_SCALARS else next(
            (t for t in (str, int, float) if isinstance(doc, t)), None)
        if kind is None:
            raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
        return _JSON_SCALARS[kind](doc)
    return f"{text[0]}{inner}{(',' + inner).join(items)}{indent}{text[1]}" if items else text


def _output(args):
    """A context manager that yields the --output file, opened for writing, or stdout."""
    return open(args.output, "w") if args.output is not None else contextlib.nullcontext(sys.stdout)


def _emit(text: str, args) -> None:
    with _output(args) as out:
        out.write(text)


def cmd_coin(args, parser) -> int:
    coin = _parse_coin(args, parser).coin
    cls = _coins.classify(coin, tol=args.tol)  # a named family is checked at --tol
    coin_doc = _coins.coin_to_json(coin)  # x, y, z are its first row
    linear_sum = {"basis": cls.basis, **dict(zip("xyz", coin_doc["entries"][0]))}
    doc = {
        "coin": coin_doc,
        "classification": {
            "family": cls.family,
            **linear_sum,
            "is_permutation": cls.is_permutation,
            "is_grover_type": cls.is_grover_type,
            "is_rational": coin.is_rational,
        },
        "linear_sum": linear_sum,
    }
    _emit(_json_text(doc) + "\n", args)
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
    methods = _methods_of(args, parser)
    entry = _parse_coin(args, parser)
    (cv,) = _period._sweep([(args.n, args.a, entry.coin)], args.tmax, args.qmax, methods)
    _emit(_json_text(_period.report_json(cv, entry.fragment)) + "\n", args)
    return 0 if cv.agreement else 3


def cmd_simulate(args, parser) -> int:
    if args.state_file is not None and (args.start is not None or args.coinstate is not None):
        parser.error("give either --start/--coinstate or --state-file, not both")
    if args.state_file is None and (args.start is None or args.coinstate is None):
        parser.error("simulate needs --start and --coinstate, or --state-file")
    spec = _walk.WalkSpec(n=args.n, a=args.a, coin=_parse_coin(args, parser).coin)
    if args.state_file is not None:
        psi0 = _read_document(args.state_file, "state file", _state_from_json, parser)
    else:
        psi0 = _walk.basis_state(spec.n, args.start, args.coinstate)
    _walk._checked_state(spec, psi0, args.tmax)  # before --output opens: a failed call leaves it intact
    with _output(args) as out:  # written one time step at a time
        _walk.write_distribution_csv(spec, psi0, args.tmax, out)
    return 0


def _values(text: str, kind, label: str, parser):
    """The comma-separated entries of `text`, each read by `kind`."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"cannot parse {label} {text!r}")


def _theta_values(args, parser):
    """The --theta-list or --theta-grid angles, in radians."""
    if args.theta_list is not None:
        return _values(args.theta_list, float, "--theta-list", parser)
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
    if not math.isfinite(stop - start):  # np.linspace would warn and give nan angles
        raise OutOfRange(f"--theta-grid STOP - START overflows a float, got {args.theta_grid!r}")
    return np.linspace(start, stop, count)


def cmd_table(args, parser) -> int:
    ns = _values(args.n_list, int, "n list", parser)
    a_values = _values(args.a_list, int, "a list", parser)
    methods = _methods_of(args, parser)
    if args.rational_grid:  # exact fractions keep the analytic route exact
        angles = [(None, Fraction(m, q))
                  for q in range(1, args.rational_grid + 1) for m in range(q) if math.gcd(m, q) == 1]
    else:
        angles = [(float(v), None) for v in _theta_values(args, parser)]
    entries = [_coin_entry(_build_coin, parser, None, None, False, args.family, theta, frac, None, None, None, None)
               for theta, frac in angles]
    cells = [(n, a, entry.coin) for n in ns for a in a_values for entry in entries]
    cvs = _period._sweep(cells, args.tmax, args.qmax, methods)  # the coins vary fastest, as in `entries`
    reports = [_period.report_json(cv, e.fragment) for cv, e in zip(cvs, entries * len(ns) * len(a_values))]
    _emit(_json_text(reports) + "\n", args)
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
    state between calls, so the shared parser must not be modified.  Its
    ``commands`` maps each command name to that command's subparser.
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

    parser.commands = sub.choices
    return parser


def _glue_signs(argv: list) -> list:
    """Join a value to the flag before it as --flag=value where argparse
    would read the value as an option or as the end of the options: a sign
    pair after --signs, and a token starting with - and a digit or . (-5/2,
    -1e-3, -1,2, -1:1:3) after a flag whose value may be negative."""
    out = []
    for arg in argv:
        if out and ((out[-1] == "--signs" and arg in SIGN_PAIRS) or (
                out[-1] in ("--rational", "--theta-frac", "--theta", "--theta-list", "--theta-grid", "--n-list",
                            "--a-list")
                and len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789.")):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args`` of argv with its signed values glued: the
    subparser of the command argv[0] names parses the rest, and the top-level
    parser reads only help, usage errors and leftover arguments."""
    parser, argv = build_parser(), _glue_signs(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit code;
    a usage error exits 2 through argparse."""
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.run(args)
    except (LivelyWalkError, OSError, MemoryError) as exc:  # OSError: a path that cannot be opened
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
