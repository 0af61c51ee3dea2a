"""Benchmark workloads: the CLI argv lists each operation runs.

Each workload is a fixed list of operations.  The seed only permutes their
order and, for ``simulate-large``, draws each start vertex and coin state;
neither changes the amount of work, so figures from different seeds compare.

This module uses the standard library only, so that generating the inputs
costs the same whether or not numpy is already loaded.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("period-table", "spectrum-scan", "simulate-large")

FAMILIES = ("X", "Y", "Z", "W")
#: images (pi(0), pi(1), pi(2)); P_p has entry (i, j) = 1 iff pi(i) = j
PERM_IMAGES = {
    1: (0, 1, 2), 2: (1, 2, 0), 3: (2, 0, 1),
    4: (0, 2, 1), 5: (1, 0, 2), 6: (2, 1, 0),
}
#: x + y + z of each family, and whether it expands in the cyclic basis
FAMILY_SUM = {"X": 1, "Y": -1, "Z": 1, "W": -1}
CYCLIC_FAMILIES = ("X", "Y")

# period-table: every theta/2pi = m/q with q <= TABLE_GRID at these n and a
TABLE_GRID = 4
TABLE_N = (3, 4, 5)
TABLE_A = (0, 1)
# spectrum-scan: the crash corpus of 40 coins over every n and valid a
SCAN_N = range(2, 13)
SCAN_FRACS = (Fraction(1, 5), Fraction(1, 8), Fraction(2, 7))
PELL_R = Fraction(2)
# simulate-large: dense evolution at large n
SIM_N = (512, 1024)
SIM_A = (0, 3)
SIM_TMAX = 50
#: the library's default brute-force bound, which table and period use
TMAX_DEFAULT = 10_000


@dataclass(frozen=True)
class CoinSpec:
    """A coin as the benchmark knows it, independent of the library.

    kind is "perm", "grover", "theta" or "pell"; ``index`` is the
    permutation p of P_p or (2/3)J - P_p, ``frac`` the angle theta/2pi and
    ``r`` the Pell parameter.
    """

    kind: str
    index: int = 0
    negate: bool = False
    family: str = ""
    frac: Fraction = Fraction(0)
    r: Fraction = Fraction(0)

    @property
    def label(self) -> str:
        sign = "-" if self.negate else ""
        if self.kind == "perm":
            return f"{sign}P{self.index}"
        if self.kind == "grover":
            return f"{sign}G{self.index}"
        if self.kind == "theta":
            return f"{self.family}@{self.frac}"
        return f"{self.family}-pell-r{self.r}"

    @property
    def needs_file(self) -> bool:
        """True for coins that no combination of CLI coin flags expresses."""
        return (self.kind == "perm" and self.negate) or self.kind == "pell"

    def exact_entries(self):
        """3x3 entries as Fractions, or None for the angle coins."""
        if self.kind in ("perm", "grover"):
            images = PERM_IMAGES[self.index]
            sign = -1 if self.negate else 1
            off = Fraction(0) if self.kind == "perm" else Fraction(2, 3)
            flip = 1 if self.kind == "perm" else -1
            return [[sign * (off + flip * (1 if images[i] == j else 0)) for j in range(3)]
                    for i in range(3)]
        if self.kind == "pell":
            return _pell_entries(self.family, self.r)
        return None

    def float_entries(self):
        """3x3 real entries as floats; angle coins use the family parametrization."""
        exact = self.exact_entries()
        if exact is not None:
            return [[float(v) for v in row] for row in exact]
        theta = 2.0 * math.pi * float(self.frac)
        c, s = math.cos(theta), math.sin(theta)
        if self.family in ("X", "Z"):
            x, y = (2 * c + 1) / 3, (1 - c) / 3 + s / math.sqrt(3.0)
        else:
            x, y = (2 * c - 1) / 3, -(1 + c) / 3 + s / math.sqrt(3.0)
        return _layout(self.family, x, y, FAMILY_SUM[self.family] - x - y)

    def argv(self, path: str | None = None) -> list:
        if self.needs_file:
            return ["--matrix-file", path]
        if self.kind == "perm":
            return ["--perm", f"P{self.index}"]
        if self.kind == "grover":
            return ["--grover", f"P{self.index}"] + (["--negate"] if self.negate else [])
        return ["--family", self.family, "--theta-frac", f"{self.frac.numerator}/{self.frac.denominator}"]


def _layout(family, x, y, z):
    if family in CYCLIC_FAMILIES:
        return [[x, y, z], [z, x, y], [y, z, x]]
    return [[x, y, z], [y, z, x], [z, x, y]]


def _pell_entries(family, r):
    """Exact orthogonal coin from the rational point r of X^2 - 3Y^2 = 1 (signs ++)."""
    num, den = r * r - 3, 3 * (r * r + 3)
    off = Fraction(1, 3) if family in ("X", "Z") else Fraction(-1, 3)
    x = off + 2 * num / den
    y = off - (num + 6 * r) / den
    return _layout(family, x, y, FAMILY_SUM[family] - x - y)


def coin_document(coin: CoinSpec) -> dict:
    """The coin JSON document the CLI reads through --matrix-file."""
    rows = coin.exact_entries()
    return {"repr": "exact", "entries": [[f"{v.numerator}/{v.denominator}" for v in row] for row in rows]}


def rational_grid(bound: int) -> list:
    """theta/2pi = m/q for q <= bound and gcd(m, q) = 1, in the CLI's order."""
    return [Fraction(m, q) for q in range(1, bound + 1) for m in range(q) if math.gcd(m, q) == 1]


@dataclass(frozen=True)
class Row:
    """One walk spec (coin, n, a) whose result an operation reports."""

    coin: CoinSpec
    n: int
    a: int


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the benchmark expects it to report.

    ``rows`` lists the specs in output order; ``site_steps`` is
    sum n * (tmax + 1) over them.  ``start`` and ``coinstate`` are set for
    simulate operations only.
    """

    argv: tuple
    command: str
    rows: tuple
    tmax: int
    start: int = 0
    coinstate: int = 0

    @property
    def site_steps(self) -> int:
        return sum(r.n * (self.tmax + 1) for r in self.rows)


def scan_coins() -> list:
    """The 40 coins of the spectrum-scan corpus."""
    coins = []
    for kind in ("perm", "grover"):
        for negate in (False, True):
            coins += [CoinSpec(kind, index=p, negate=negate) for p in range(1, 7)]
    coins += [CoinSpec("theta", family=f, frac=q) for f in FAMILIES for q in SCAN_FRACS]
    coins += [CoinSpec("pell", family=f, r=PELL_R) for f in FAMILIES]
    return coins


def _period_table(smoke: bool):
    fams, ns, grid = (("X", "W"), (3,), 3) if smoke else (FAMILIES, TABLE_N, TABLE_GRID)
    ops = []
    for fam in fams:
        for n in ns:
            for a in TABLE_A:
                argv = ("table", "--family", fam, "--rational-grid", str(grid),
                        "--n-list", str(n), "--a-list", str(a))
                rows = tuple(Row(CoinSpec("theta", family=fam, frac=f), n, a) for f in rational_grid(grid))
                ops.append(Op(argv=argv, command="table", rows=rows, tmax=TMAX_DEFAULT))
    return ops


def _spectrum_scan(smoke: bool, paths: dict):
    coins = scan_coins()
    ns = SCAN_N
    if smoke:
        coins = [c for c in coins if c.label in ("P2", "-P2", "P5", "G1", "X@1/5") or c.kind == "pell"][:6]
        ns = range(2, 8)
    ops = []
    for coin in coins:
        for n in ns:
            for a in range(n // 2 + 1):
                argv = ("period", *coin.argv(paths.get(coin.label)), "--n", str(n), "--a", str(a),
                        "--methods", "analytic,spectral")
                ops.append(Op(argv=argv, command="period", rows=(Row(coin, n, a),), tmax=TMAX_DEFAULT))
    return ops


def _simulate_large(smoke: bool, rng: random.Random):
    ns, tmax = ((16, 24), 10) if smoke else (SIM_N, SIM_TMAX)
    coin = CoinSpec("grover", index=1)
    ops = []
    for n in ns:
        for a in SIM_A:
            start, coinstate = rng.randrange(n), rng.randrange(3)
            argv = ("simulate", *coin.argv(), "--n", str(n), "--a", str(a), "--start", str(start),
                    "--coinstate", str(coinstate), "--tmax", str(tmax))
            ops.append(Op(argv=argv, command="simulate", rows=(Row(coin, n, a),), tmax=tmax,
                          start=start, coinstate=coinstate))
    return ops


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> list:
    """Write the workload's coin files into workdir and return its operations.

    The same seed gives the same operations in the same order.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "period-table":
        ops = _period_table(smoke)
    elif workload == "spectrum-scan":
        paths = {}
        for coin in scan_coins():
            if coin.needs_file:
                path = os.path.join(workdir, f"coin{coin.label}.json")
                with open(path, "w") as fh:
                    json.dump(coin_document(coin), fh)
                paths[coin.label] = path
        ops = _spectrum_scan(smoke, paths)
    elif workload == "simulate-large":
        ops = _simulate_large(smoke, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops
