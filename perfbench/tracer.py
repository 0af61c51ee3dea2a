"""Spans and counts at the library's layer boundaries, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every livelywalk module that binds it, so callers in any layer reach the
wrapper.  Spans are kept in memory as (name, start, end, parent) and turned
into per-layer self times at the end: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: span name -> (module, attribute) of each traced function
SPANS = {
    "cli.main": [("cli", "main")],
    "coins.classify": [("coins", "classify")],
    "coins.construct": [("coins", name) for name in (
        "perm_matrix", "grover_type", "coin_from_theta", "coin_from_theta_frac",
        "coin_from_rational", "coin_from_xyz", "coin_from_json")],
    "walk.reduced_block": [("walk", "reduced_block")],
    "walk.spectrum": [("walk", "spectrum")],
    "walk.evolution_operator": [("walk", "evolution_operator")],
    "walk.write_distribution_csv": [("walk", "write_distribution_csv")],
    "exactnum.eig3_unitary": [("exactnum", "eig3_unitary")],
    "period.analytic": [("period", "period_analytic")],
    "period.spectral": [("period", "period_spectral")],
    "period.bruteforce": [("period", "period_bruteforce")],
}
MODULES = ("livelywalk", "livelywalk.cli", "livelywalk.coins", "livelywalk.walk",
           "livelywalk.period", "livelywalk.exactnum", "livelywalk.verify")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = Counter()
        self.errors = []  # (span name, exception class name), innermost span first
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors.append((name, type(exc).__name__))
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, original, wrapper):
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for modname in MODULES:
            module = sys.modules[modname]
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        import livelywalk  # noqa: F401  (loads every module named in MODULES)
        from livelywalk import exactnum, period, walk

        after = {
            "period.bruteforce": self._after_bruteforce,
            "walk.evolution_operator": self._after_operator,
            "walk.write_distribution_csv": self._after_csv,
        }
        for name, targets in SPANS.items():
            for modname, attr in targets:
                original = getattr(sys.modules[f"livelywalk.{modname}"], attr)
                self._rebind(original, self._wrap(name, original, after.get(name)))

        spec_init = walk.WalkSpec.__init__
        self._patch(walk.WalkSpec, "__init__", self._wrap("walk.WalkSpec", spec_init))

        counts = self.counts
        cluster = exactnum._solve_cluster

        def counted_cluster(*args, **kwargs):
            counts["exactnum.eig3_unitary.cluster_calls"] += 1
            return cluster(*args, **kwargs)

        self._patch(exactnum, "_solve_cluster", counted_cluster)

        cross_validate = period.cross_validate

        def counted_cross_validate(*args, **kwargs):
            cv = cross_validate(*args, **kwargs)
            counts["period.disagreements"] += not cv.agreement
            return cv

        self._rebind(cross_validate, counted_cross_validate)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _after_bruteforce(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        steps = result.period if result.status == "finite" else result.bound
        self.counts["period.bruteforce.steps"] += steps
        self.counts["period.bruteforce.ran_to_tmax"] += result.status == "no_period_up_to"
        self.counts["period.bruteforce.flops_computed"] += steps * 8 * (3 * spec.n) ** 3

    def _after_operator(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        self.counts["walk.evolution_operator.bytes_computed"] += 16 * (3 * spec.n) ** 2

    def _after_csv(self, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        tmax = args[2] if len(args) > 2 else kwargs["tmax"]
        self.counts["walk.write_distribution_csv.rows"] += (tmax + 1) * spec.n

    def self_times(self) -> dict:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)
