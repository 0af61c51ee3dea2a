"""Independent checks of the CLI's outputs.

Nothing here imports the library.  The walk operator is rebuilt from the
benchmark's own coin entries with its own ``np.kron``, periods are checked
by dense powering, and distributions by a matrix-free ``np.roll`` walk.
Every checker returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import CoinSpec, Op, Row

#: ||U^t - I||_F at or below this counts as the identity
IDENTITY_TOL = 1e-8
#: ||U^t - I||_F above this counts as clearly not the identity
SEPARATION_TOL = 1e-6
#: the dense checks run up to this n (3n x 3n matrices)
DENSE_MAX_N = 12
#: smallest periods up to this t are found by iterated products
SMALL_PERIOD_MAX = 128
#: largest |p - p_oracle| accepted for one CSV probability
PROB_TOL = 1e-10

#: periods the paper states (coin label, n, a) -> T
PAPER_PERIODS = {
    ("G1", 3, 0): 6,
    ("X@1/4", 3, 0): 12,
    ("X@3/4", 3, 0): 12,
    **{("P5", n, 0): 2 for n in range(2, 13)},
}


def walk_operator(coin: CoinSpec, n: int, a: int) -> np.ndarray:
    """Dense U = S (C (x) I_n) with index c*n + v; coin c moves v by -1, +1, a."""
    c = np.array(coin.float_entries(), dtype=float)
    eye = np.eye(n)
    shift = np.zeros((3 * n, 3 * n))
    for k, step in enumerate((-1, 1, a)):
        shift[k * n:(k + 1) * n, k * n:(k + 1) * n] = np.roll(eye, step, axis=0)
    return shift @ np.kron(c, eye)


def _defect(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - np.eye(m.shape[0])))


def _primes(t: int) -> list:
    out, p = [], 2
    while p * p <= t:
        if t % p == 0:
            out.append(p)
            while t % p == 0:
                t //= p
        p += 1
    if t > 1:
        out.append(t)
    return out


def period_is_minimal(u: np.ndarray, t: int) -> bool:
    """U^t = I and U^(t/p) != I for each prime p dividing t."""
    if _defect(np.linalg.matrix_power(u, t)) > IDENTITY_TOL:
        return False
    return all(_defect(np.linalg.matrix_power(u, t // p)) > SEPARATION_TOL for p in _primes(t))


def smallest_period(u: np.ndarray, limit: int = SMALL_PERIOD_MAX):
    """Least t <= limit with U^t = I, or None."""
    m = u.copy()
    for t in range(1, limit + 1):
        if _defect(m) <= IDENTITY_TOL:
            return t
        m = m @ u
    return None


def check_period_row(row: Row, report: dict) -> list:
    """Check one period report against the dense oracle and the paper's table."""
    where = f"{row.coin.label} n={row.n} a={row.a}"
    if (report.get("n"), report.get("a")) != (row.n, row.a):
        return [f"{where}: report is for n={report.get('n')} a={report.get('a')}"]
    problems = []
    entries = np.array(report["coin"]["entries"], dtype=object)
    got = np.array([[float(_fraction_or_float(v)) for v in r] for r in entries])
    if np.max(np.abs(got - np.array(row.coin.float_entries()))) > 1e-12:
        problems.append(f"{where}: reported coin differs from the requested coin")
    finite = {r["period"] for r in report["results"] if r["status"] == "finite"}
    if len(finite) > 1:
        problems.append(f"{where}: methods report different periods {sorted(finite)}")
    if row.n <= DENSE_MAX_N:
        u = walk_operator(row.coin, row.n, row.a)
        small = smallest_period(u)
        if small is not None and finite != {small}:
            problems.append(f"{where}: dense period is {small}, reported {sorted(finite)}")
        for t in finite:
            if not period_is_minimal(u, t):
                problems.append(f"{where}: reported period {t} is not the minimal period")
        for r in report["results"]:
            if r["status"] == "no_period_up_to" and small is not None and small <= r["bound"]:
                problems.append(f"{where}: {r['method']} claims no period up to {r['bound']}, dense finds {small}")
    expected = PAPER_PERIODS.get((row.coin.label, row.n, row.a))
    if expected is not None and finite != {expected}:
        problems.append(f"{where}: the paper gives period {expected}, reported {sorted(finite)}")
    return problems


def _fraction_or_float(v):
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return int(num) / int(den or 1)
    return v


def check_period_output(op: Op, text: str) -> list:
    """Check the JSON a table or period invocation printed."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{' '.join(op.argv)}: output is not JSON ({exc})"]
    reports = doc if op.command == "table" else [doc]
    if len(reports) != len(op.rows):
        return [f"{' '.join(op.argv)}: {len(reports)} reports for {len(op.rows)} specs"]
    problems = []
    for row, report in zip(op.rows, reports):
        problems += check_period_row(row, report)
    return problems


def simulate_distribution(coin: CoinSpec, n: int, a: int, start: int, coinstate: int, tmax: int) -> np.ndarray:
    """Position distributions for t = 0..tmax by a matrix-free np.roll walk."""
    c = np.array(coin.float_entries(), dtype=float)
    psi = np.zeros((3, n), dtype=complex)
    psi[coinstate, start] = 1.0
    out = np.empty((tmax + 1, n))
    for t in range(tmax + 1):
        out[t] = (np.abs(psi) ** 2).sum(axis=0)
        mixed = c @ psi
        psi = np.stack([np.roll(mixed[k], step) for k, step in enumerate((-1, 1, a))])
    return out


def check_csv(text: str, expected: np.ndarray) -> list:
    """Compare t,position,probability rows with the oracle's distributions."""
    lines = text.splitlines()
    if not lines or lines[0] != "t,position,probability":
        return ["CSV header is missing or wrong"]
    steps, n = expected.shape
    if len(lines) - 1 != steps * n:
        return [f"CSV has {len(lines) - 1} rows, expected {steps * n}"]
    try:
        data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    except ValueError as exc:
        return [f"CSV row does not parse: {exc}"]
    if data.shape[1] != 3:
        return [f"CSV rows have {data.shape[1]} fields, expected 3"]
    problems = []
    t_ok = np.array_equal(data[:, 0], np.repeat(np.arange(steps), n))
    v_ok = np.array_equal(data[:, 1], np.tile(np.arange(n), steps))
    if not (t_ok and v_ok):
        problems.append("CSV rows are not in t, position order")
    gap = np.abs(data[:, 2] - expected.ravel())
    worst = int(np.argmax(gap))
    if gap[worst] > PROB_TOL:
        problems.append(f"CSV row {worst + 1} probability off by {gap[worst]:.3e}")
    return problems


def check_simulate_output(op: Op, text: str) -> list:
    row = op.rows[0]
    expected = simulate_distribution(row.coin, row.n, row.a, op.start, op.coinstate, op.tmax)
    return [f"{' '.join(op.argv)}: {p}" for p in check_csv(text, expected)]


def check_output(op: Op, text: str) -> list:
    if op.command == "simulate":
        return check_simulate_output(op, text)
    return check_period_output(op, text)
