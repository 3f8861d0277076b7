"""Per-layer tracing from outside the library.

``Tracer`` replaces the public functions of each layer with timing wrappers in
the namespace of every ``kickedqubit`` module that holds them, and puts the
originals back on ``restore``. Each call's self time is its duration minus
the time spent in wrapped calls beneath it. Calls of the coarse layers are
also kept as spans (name, start, end, parent); the hottest leaves, called up
to millions of times per pass, are only aggregated into counts and self
time, which keeps memory bounded.

A wrapper's own bookkeeping lies outside the duration it records, so it
would land in the caller's self time: on ``obs_scan`` millions of wrapped
pointwise calls under the quadrature integrand would inflate
``quadrature.self_s``. ``calibrate`` times wrapped and bare no-op calls, and
``snapshot`` subtracts that per-call cost for every wrapped child call (and
for every counted integrand evaluation) from the caller's self time. The
uncorrected figure is kept as ``raw_self_s``.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

# (layer, module, public functions, keep spans)
LAYERS = (
    ("cli", "cli", ("main",), True),
    ("diagnostics", "diagnostics",
     ("observation_time_scan", "kick_limit_scan", "ordering_difference_surface", "classify_regime"), True),
    ("ode", "ode", ("evolve",), True),
    ("perturbation", "perturbation", ("dyson_second_order",), True),
    ("propagators.nto", "propagators", ("nto_propagator",), True),
    ("propagators.kick", "propagators", ("schedule_kick_propagator", "kick_sequence", "single_kick"), True),
    ("quadrature", "quadrature", ("adaptive_simpson",), False),
    ("pulses.coupling_integral", "pulses", ("pulse_coupling_integral", "coupling_integral"), False),
    ("pulses.pointwise", "pulses",
     ("value_at", "schrodinger_hamiltonian", "interaction_potential", "rotated_axis_matrix"), False),
    ("su2.exp", "su2", ("exp_minus_i_generator", "exp_i_phi_sigma_u"), False),
)

PACKAGE = "kickedqubit"
COUNTERS = ("calls", "raw_self_s", "child_calls", "evals", "rk4_steps", "recorded_states",
            "kick_pairs", "obs_points", "surface_points")
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


class Tracer:
    def __init__(self):
        self.totals = {layer: dict.fromkeys(COUNTERS, 0) for layer, *_ in LAYERS}
        self.spans: list[list] = []
        self.keep_spans = True
        self._stack: list[list] = []  # [span index or None, time in wrapped children, their calls]
        self._patched: list[tuple] = []
        self.call_cost = 0.0  # seconds a wrapper adds to its caller, outside its own duration
        self.eval_cost = 0.0  # seconds the evaluation counter adds to each integrand call

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, module, names, spans in LAYERS:
            source = sys.modules[f"{PACKAGE}.{module}"]
            for name in names:
                original = getattr(source, name)
                wrapper = self._wrap(original, self.totals[layer], f"{module}.{name}", spans)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def restore(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        for counts in self.totals.values():
            counts.update(dict.fromkeys(COUNTERS, 0))

    # -------------------------------------------------------------- wrappers

    def calibrate(self) -> None:
        """Measure ``call_cost`` and ``eval_cost`` on no-op functions."""
        totals = dict.fromkeys(COUNTERS, 0)
        wrapped = self._wrap(_noop, totals, "calibration", False)
        self._stack.append([None, 0.0, 0])  # a wrapped caller, as in a real pass
        try:
            traced = _per_call(wrapped)
        finally:
            self._stack.pop()
        inside = totals["raw_self_s"] / totals["calls"]  # what the wrapper records as the call
        self.call_cost = max(0.0, traced - _per_call(_noop) - inside)
        self.eval_cost = max(0.0, _per_call(_counted(_noop, totals)) - _per_call(_noop))

    def _wrap(self, fn, totals: dict, name: str, keep: bool):
        stack = self._stack
        spans = self.spans
        count = _COUNTING.get(name)
        evals = name == "quadrature.adaptive_simpson"

        def traced(*args, **kwargs):
            span = None
            if keep and self.keep_spans:
                parent = next((e[0] for e in reversed(stack) if e[0] is not None), None)
                span = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            if evals:
                args = (_counted(args[0], totals),) + args[1:]
            stack.append([span, 0.0, 0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                _, child, child_calls = stack.pop()
                duration = end - start
                totals["calls"] += 1
                totals["raw_self_s"] += duration - child
                totals["child_calls"] += child_calls
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] += 1
                if span is not None:
                    spans[span][1:3] = [start, end]
            if count is not None:
                count(totals, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Per-layer counters, with ``self_s`` net of the wrappers beneath each layer."""
        layers = {}
        for layer, counts in self.totals.items():
            overhead = counts["child_calls"] * self.call_cost + counts["evals"] * self.eval_cost
            layers[layer] = dict(counts, self_s=max(0.0, counts["raw_self_s"] - overhead))
        return layers


def _noop(*args):
    return None


def _per_call(fn) -> float:
    """Fastest of a few timings of ``fn(0.5)`` called many times, per call."""
    best = math.inf
    for _ in range(CALIBRATION_REPEATS):
        start = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn(0.5)
        best = min(best, perf_counter() - start)
    return best / CALIBRATION_CALLS


def _counted(f, totals):
    def integrand(t):
        totals["evals"] += 1
        return f(t)

    return integrand


def _count_evolve(totals, args, result):
    s, cfg = args[0], args[1]
    totals["rk4_steps"] += max(1, math.ceil(s.duration() / cfg.dt))
    totals["recorded_states"] += len(result.times)


def _count_dyson(totals, args, result):
    s = args[0]
    kicks = sum(1 for p in s.pulses if not hasattr(p, "tau"))
    if kicks == len(s.pulses):
        totals["kick_pairs"] += kicks * kicks


def _count_rows(key):
    def count(totals, args, result):
        totals[key] += len(result)

    return count


_COUNTING = {
    "ode.evolve": _count_evolve,
    "perturbation.dyson_second_order": _count_dyson,
    "diagnostics.observation_time_scan": _count_rows("obs_points"),
    "diagnostics.ordering_difference_surface": _count_rows("surface_points"),
}
