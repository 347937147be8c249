"""Layer spans recorded from outside the program.

:class:`Tracer` replaces module-level names of ``cubicobs`` (the names the
program's own modules call through) with wrappers that record one span per
call: name, start, end and the enclosing span.  Spans live in flat arrays in
memory until :meth:`Tracer.take` folds them into per-name totals and clears
them.  A span's self time is its duration minus the durations of its direct
children, so a drive evaluation nested inside a model-expression evaluation
is charged once.  The same wrappers keep counters (errors, drive calls,
steps, bytes, searches that returned) that the per-layer metrics need.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from dataclasses import fields, is_dataclass

import numpy as np


def _has_time(e) -> bool:
    if type(e).__name__ == "TimeVar":
        return True
    return any(_has_time(getattr(e, f.name)) for f in fields(e)
               if is_dataclass(getattr(e, f.name)))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._has_time: dict[int, tuple[object, bool]] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(args, result, ok)`` runs once the span is closed, so its own
        cost is not charged to the span.
        """
        orig = getattr(owner, attr)
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            ok, out = False, None
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if after is not None:
                    after(args, out, ok)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def install(self) -> None:
        """Wrap the layer boundaries of an imported ``cubicobs`` package."""
        from cubicobs import cert, cli, design, exprlang, model, sim

        counts = self.counts
        memo = self._has_time

        def on_evaluate(args, out, ok):
            e = args[0]
            hit = memo.get(id(e))
            if hit is None or hit[0] is not e:
                hit = memo[id(e)] = (e, _has_time(e))
            if hit[1]:
                counts["exprlang.evaluate.drive_calls"] += 1
            if not ok:
                counts["exprlang.evaluate.errors"] += 1

        def on_simulate(args, out, ok):
            if ok:
                counts["sim.steps"] += len(out.t) - 1

        def on_csv(args, out, ok):
            if ok:
                counts["sim.write_trajectory_csv.bytes"] += os.path.getsize(args[1])

        def found(name):
            def hook(args, out, ok):
                if ok:
                    counts[name] += 1
            return hook

        orig_minimize = cert.minimize

        def counting_minimize(fun, *args, **kwargs):
            def objective(z, *a):
                counts["cert.check_equilibrium_uniqueness.objective_evals"] += 1
                return fun(z, *a)
            return orig_minimize(objective, *args, **kwargs)

        self._patches.append((cert, "minimize", orig_minimize))
        cert.minimize = counting_minimize

        self.wrap(sim, "evaluate", "exprlang.evaluate", on_evaluate)
        self.wrap(exprlang, "parse", "exprlang.parse")
        self.wrap(model, "parse", "exprlang.parse")
        self.wrap(sim, "simulate", "sim.simulate", on_simulate)
        self.wrap(sim.HistoryBuffer, "value_at", "sim.history.value_at")
        self.wrap(sim, "write_trajectory_csv", "sim.write_trajectory_csv", on_csv)
        self.wrap(sim, "validate", "model.validate")
        self.wrap(model, "load_config", "model.load_config")
        self.wrap(design, "compute_E", "design.compute_E")
        self.wrap(design, "design_GJ", "design.design_GJ")
        self.wrap(design, "stabilize_L", "design.stabilize_L",
                  found("design.stabilize_L.found"))
        self.wrap(design, "spectral_abscissa", "design.spectral_abscissa")
        self.wrap(cert, "search_P", "cert.search_P", found("cert.search_P.found"))
        self.wrap(cert, "lipschitz_lmi", "cert.lipschitz_lmi")
        self.wrap(cert, "definiteness_margin", "numlin.definiteness_margin")
        self.wrap(cert, "check_equilibrium_uniqueness", "cert.check_equilibrium_uniqueness")
        self.wrap(cert, "verify_lmi_lipschitz", "cert.verify")
        self.wrap(cert, "verify_N_condition", "cert.verify")
        self.wrap(cli, "main", "cli.main")

    def take(self) -> dict:
        """Fold the recorded spans into per-name totals and clear them.

        Returns ``{name: (calls, total_s, self_s)}`` plus the counters.
        """
        k = len(self.names)
        if len(self.span_start):
            # copies: the arrays are cleared below, which views would forbid
            name = np.array(self.span_name, dtype=np.int64)
            parent = np.array(self.span_parent, dtype=np.int64)
            dur = np.array(self.span_end) - np.array(self.span_start)
            nested = parent >= 0
            child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
            calls = np.bincount(name, minlength=k)
            total = np.bincount(name, weights=dur, minlength=k)
            self_s = np.bincount(name, weights=dur - child, minlength=k)
        else:
            calls, total, self_s = np.zeros(k, int), np.zeros(k), np.zeros(k)
        spans = {n: (int(calls[i]), float(total[i]), float(self_s[i]))
                 for i, n in enumerate(self.names)}
        counts = dict(self.counts)
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counts.clear()
        return {"spans": spans, "counts": counts}
