"""Adaptive 24-point Gauss-Legendre quadrature: each round samples all open panels in one integrand call."""

from __future__ import annotations

import math

import numpy as np

MAX_NODES = 2**17  # nodes in one integrand call: ~1.2 kB each in the Dyson gap integrand, ~160 MB in all
MAX_DEPTH = 40  # rounds of splitting after the first; at the last every open panel is accepted

# Ascending nodes on [-1, 1], symmetric: Newton on P_24's recurrence in floats, so no numpy code is paged in at import.
NODES, WEIGHTS = np.zeros(24), np.zeros(24)
for _i in range(12):
    _x = -math.cos(math.pi * (_i + 0.75) / 24.5)
    for _ in range(5):  # quadratic convergence: exact to rounding after four steps
        _p0, _p1 = 1.0, _x
        for _k in range(2, 25):
            _p0, _p1 = _p1, ((2 * _k - 1) * _x * _p1 - (_k - 1) * _p0) / _k
        _dp = 24 * (_x * _p1 - _p0) / (_x * _x - 1.0)
        _x -= _p1 / _dp
    NODES[_i], NODES[23 - _i] = _x, -_x
    WEIGHTS[_i] = WEIGHTS[23 - _i] = 2.0 / ((1.0 - _x * _x) * _dp * _dp)


def adaptive_gauss_legendre(f, a: float, b: float, tol: float):
    """Integrate ``f`` (times -> values stacked on axis 0) over [a, b] to absolute tolerance ``tol`` per entry.

    Widths are signed. The first call samples [a, b] and its halves; a panel is accepted as left + right
    when within ``tol`` (max entry) of its whole, else split, and ``tol`` halves each round. After :data:`MAX_DEPTH`
    rounds every open panel is accepted; FloatingPointError when a call would take more than :data:`MAX_NODES` nodes.
    """
    lo, hi, whole, result, depth = np.array([a, a, 0.5 * (a + b)]), np.array([b, 0.5 * (a + b), b]), None, 0.0, MAX_DEPTH
    while lo.size:
        if lo.size * NODES.size > MAX_NODES:
            raise FloatingPointError(f"{lo.size * NODES.size} Gauss-Legendre nodes in one call, above {MAX_NODES}")
        half = 0.5 * (hi - lo)
        values = np.asarray(f(((lo + half)[:, None] + np.outer(half, NODES)).ravel()), dtype=complex)
        panels = half[:, None] * np.sum(values.reshape(lo.size, NODES.size, -1) * WEIGHTS[:, None], axis=1)
        if whole is None:
            whole, panels, lo, hi = panels[:1], panels[1:], lo[1:], hi[1:]
        halves = panels[: len(whole)] + panels[len(whole):]  # left halves of the open panels, then right halves
        done = (np.max(np.abs(halves - whole), axis=1) <= tol) | (depth <= 0)
        result = result + np.sum(halves[done], axis=0)
        go = np.concatenate((~done, ~done))
        whole, lo, hi, m = panels[go], lo[go], hi[go], 0.5 * (lo[go] + hi[go])
        lo, hi, tol, depth = np.concatenate((lo, m)), np.concatenate((m, hi)), 0.5 * tol, depth - 1
    return result.reshape(values.shape[1:])


adaptive_simpson = adaptive_gauss_legendre  # the name perfbench/tracing.LAYERS wraps, until ROADMAP item 1
