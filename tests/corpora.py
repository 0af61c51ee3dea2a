"""The shared test corpora, the golden files' plumbing, and the one tool
that regenerates a golden file.

Each tests/golden_<name>.txt pins a corpus's results.  Its runner, the
tests/test_golden*.py whose GOLDEN is the name, gives its lines by
``compute()`` and holds them to the file by `assert_golden`.  When a change
of behaviour is intended, regenerate the file and list the rows that moved,
old beside new:

    PYTHONPATH=src python tests/corpora.py golden_table

A moved row is one ``n a ...`` row under its coin id (or analytic's
document digest) in the per-coin files of JOINED, a whole line elsewhere.
"""

import contextlib
import difflib
import importlib
import io
import itertools
import math
import sys
from fractions import Fraction
from pathlib import Path

from livelywalk import coins

#: the directory of the golden files
GOLDEN_DIR = Path(__file__).parent

#: the files of one line per coin: its id, then its rows joined by ";"
JOINED = ("golden_analytic", "golden_bruteforce", "golden_spectral")

# --- coin corpora ------------------------------------------------------------

#: the Pell coins' r, each in every family and sign pair, of the analytic corpus
PELL_R = (Fraction(0), Fraction(1), Fraction(2), Fraction(5, 7))
SIGNS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}
GENERIC_THETAS = (0.3, 1.0, 2.0, 4.5)
#: theta/2pi = k/6 +- this is just outside the tolerance that makes a coin special
NEAR_SPECIAL = Fraction(1, 10**10)
#: special coin id -> the coin flags that build it; no flag builds -P, which
#: only a coin file expresses
SPECIAL_SOURCES = {
    cid: argv for p in range(1, 7) for cid, argv in (
        (f"P{p}", ("--perm", f"P{p}")), (f"G{p}", ("--grover", f"P{p}")),
        (f"-G{p}", ("--grover", f"P{p}", "--negate")))
}


def special_coins() -> dict:
    """The 24 special coins, id -> coin: P_p, -P_p, G_p = (2/3)J - P_p and
    -G_p for each p = 1..6.  -P_p is the family-less ``Coin3(matrix=-P)``,
    not the ``SPECIAL_COINS`` entry, which names its family: the analytic
    corpus pins each coin's document."""
    out = {}
    for p in range(1, 7):
        out[f"P{p}"] = coins.perm_matrix(p)
        out[f"-P{p}"] = coins.Coin3(matrix=-coins.perm_matrix(p).matrix)
        out[f"G{p}"] = coins.grover_type(p)
        out[f"-G{p}"] = coins.grover_type(p, negate=True)
    return out


def rational_grid(qmax: int) -> list:
    """theta/2pi = m/q with gcd(m, q) = 1, for q = 1..qmax and m = 0..q-1."""
    return [Fraction(m, q) for q in range(1, qmax + 1) for m in range(q) if math.gcd(m, q) == 1]


def theta_frac_coins(fracs) -> dict:
    """'family frac' -> the coin at theta/2pi = frac with the fraction attached,
    for each family and frac."""
    return {f"{fam} {f}": coins.coin_from_theta_frac(fam, f) for fam in coins.FAMILIES for f in fracs}


def analytic_corpus() -> dict:
    """Coin id -> (coin, the `coin` flags that build it, or None) for the 568
    coins of golden_analytic.txt and golden_classify.txt: the special coins,
    then per family each theta/2pi = m/q with q <= 12 and each k/6 +-
    NEAR_SPECIAL (once with the fraction attached, once as an angle in
    radians), the Pell coins of PELL_R and SIGNS, and the GENERIC_THETAS."""
    out = {cid: (coin, SPECIAL_SOURCES.get(cid)) for cid, coin in special_coins().items()}
    # the grid's radians are taken from m and q, the offset ones from the float fraction
    angles = [(f, 2.0 * math.pi * f.numerator / f.denominator) for f in rational_grid(12)]
    angles += [(f, 2.0 * math.pi * float(f)) for k in range(6)
               for f in (Fraction(k, 6) - NEAR_SPECIAL, Fraction(k, 6) + NEAR_SPECIAL)]
    for fam in coins.FAMILIES:
        flag = ("--family", fam)
        for f, theta in angles:
            out[f"{fam} frac {f}"] = coins.coin_from_theta_frac(fam, f), (*flag, f"--theta-frac={f}")
            out[f"{fam} rad {f}"] = coins.coin_from_theta(fam, theta), (*flag, f"--theta={theta!r}")
        for r in PELL_R:
            for label, (s1, s2) in SIGNS.items():
                out[f"{fam} pell {r} {label}"] = (coins.coin_from_rational(fam, r, s1, s2),
                                                  (*flag, "--rational", str(r), f"--signs={label}"))
        for theta in GENERIC_THETAS:
            out[f"{fam} theta {theta}"] = coins.coin_from_theta(fam, theta), (*flag, f"--theta={theta!r}")
    return out


def rational_orthogonal(bound: int) -> list:
    """Every matrix +-R(q)/|q|^2, once each, as nested tuples of Fractions:
    R(q) is the Euler-Rodrigues matrix of an integer quaternion q with
    0 < |q|^2 <= bound.  Every rational 3x3 rotation is R(q)/|q|^2 for some
    integer q, so these are the rational orthogonal matrices up to that
    height."""
    h = math.isqrt(bound)
    out = set()
    for a, b, c, d in itertools.product(range(-h, h + 1), repeat=4):
        norm = a * a + b * b + c * c + d * d
        if not 0 < norm <= bound:
            continue
        r = ((a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)),
             (2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)),
             (2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d))
        for sign in (1, -1):
            out.add(tuple(tuple(Fraction(sign * e, norm) for e in row) for row in r))
    return sorted(out)


# --- golden plumbing ---------------------------------------------------------


def runners() -> dict:
    """Golden name -> its runner: each tests/test_golden*.py names its file by GOLDEN."""
    modules = [importlib.import_module(path.stem) for path in sorted(Path(__file__).parent.glob("test_golden*.py"))]
    return {module.GOLDEN: module for module in modules}


def golden(name: str) -> list[str]:
    """The lines of tests/<name>.txt."""
    return (GOLDEN_DIR / f"{name}.txt").read_text().splitlines()


def assert_golden(name: str, actual: list[str], same=None) -> None:
    """actual is tests/<name>.txt line for line; same(want, got), when given,
    also accepts a line whose text differs."""
    expected = golden(name)
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        if same is None or not same(want, got):
            assert got == want


def golden_argvs(workdir: Path) -> list[tuple]:
    """Every argv of the golden CLI corpora but verify's, in a fixed order; the
    coin and state files they read are written into workdir."""
    by_name = runners()
    coinfile = by_name["golden_coinfile"]
    out = list(by_name["golden_cli_errors"].calls()) + list(by_name["golden_table"].calls())
    out += [("coin", *argv) for _, argv in analytic_corpus().values() if argv is not None]
    out += [argv for _, argv in coinfile.calls(coinfile.write_documents(workdir))]
    out += [argv for _, argv in by_name["golden_simulate_bytes"].calls(workdir)]
    return out


# --- the regeneration tool ---------------------------------------------------


def _rows(lines: list[str], joined: bool) -> dict:
    """Coin id -> its rows for a per-coin file, else "" -> every line."""
    if not joined:
        return {"": lines}
    out = {}
    for line in lines:
        cid, *head, rows = line.split("\t")
        out[cid] = head + rows.split(";")
    return out


def moved_rows(old: list[str], new: list[str], joined: bool) -> list[tuple[str, str, str]]:
    """(coin id, old row, new row) of each row that moved, in file order; the
    id is "" outside the per-coin files, and a row added or dropped has ""
    on its missing side."""
    before, after = _rows(old, joined), _rows(new, joined)
    moves = []
    for cid in {**before, **after}:
        was, now = before.get(cid, []), after.get(cid, [])
        for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, was, now, autojunk=False).get_opcodes():
            if tag != "equal":
                moves += [(cid, a, b) for a, b in itertools.zip_longest(was[i1:i2], now[j1:j2], fillvalue="")]
    return moves


def regenerate(name: str) -> list[tuple[str, str, str]]:
    """Rewrite tests/<name>.txt from its runner's compute(); the rows that moved.

    A runner whose test accepts a line within a tolerance names the rule
    ``same_row(want, got)``, and a computed line it accepts keeps the file's
    text at the same position.
    """
    runner = runners()[name]
    old = golden(name)
    with contextlib.redirect_stderr(io.StringIO()):  # no golden file pins the CLI's stderr
        new = runner.compute()
    same = getattr(runner, "same_row", None)
    if same is not None:
        new = [want if same(want, got) else got for want, got in zip(old, new)] + new[len(old):]
    (GOLDEN_DIR / f"{name}.txt").write_text("\n".join(new) + "\n")
    return moved_rows(old, new, name in JOINED)


def main(argv: list[str]) -> int:
    names = sorted(runners())
    if len(argv) != 1 or argv[0] not in names:
        print(f"usage: python tests/corpora.py {{{','.join(names)}}}", file=sys.stderr)
        return 2
    moves = regenerate(argv[0])
    for cid, was, now in moves:
        print(f"{cid + ': ' if cid else ''}{was or '(none)'}  ->  {now or '(none)'}")
    print(f"{argv[0]}: {len(moves)} row(s) moved")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
