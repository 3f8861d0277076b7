"""Adaptive Simpson quadrature for scalar- or matrix-valued integrands.

Interval-bisecting Simpson with Richardson correction, one level at a time:
the integrand takes an array of times, and all open intervals of a level are
sampled in one call. The error metric is the maximum absolute entry, so a
single routine serves both scalar integrals and entrywise integrals of 2x2
complex matrices.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
MAX_DEPTH = 48
# Open intervals one level may hold: ~2.5 kB each with the Dyson gap integrand's workspace, ~160 MB in all.
MAX_INTERVALS = 2**16


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL, max_depth: int = MAX_DEPTH):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol`` per entry.

    ``f`` maps an array of times to their values (floats, complex numbers or
    ndarrays) stacked along the first axis; the result is a complex array shaped
    like one value. Widths are signed, so reversed bounds negate the result and
    equal bounds give zero. Each level halves the tolerance. FloatingPointError
    when a level would hold more than :data:`MAX_INTERVALS` intervals.
    """
    lo, hi = np.array([a]), np.array([b])
    fa, fm, fb = np.asarray(f(np.array([a, 0.5 * (a + b), b])), dtype=complex)[:, None]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = np.zeros(whole.shape[1:], dtype=complex)
    while lo.size:
        if lo.size > MAX_INTERVALS:
            raise FloatingPointError(f"adaptive Simpson needs {lo.size} intervals in one level, above {MAX_INTERVALS}")
        m = 0.5 * (lo + hi)
        flm, frm = np.split(np.asarray(f(np.concatenate((0.5 * (lo + m), 0.5 * (m + hi)))), dtype=complex), 2)
        width = ((m - lo) / 6.0).reshape((-1,) + (1,) * (whole.ndim - 1))
        left = width * (fa + 4.0 * flm + fm)
        right = width * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.max(np.abs(delta).reshape(lo.size, -1), axis=1) <= 15.0 * tol) | (max_depth <= 0)
        # Richardson correction: Simpson error on the halved grid is delta/15.
        result += np.sum((left + right + delta / 15.0)[done], axis=0)
        go = ~done
        lo, hi = np.concatenate((lo[go], m[go])), np.concatenate((m[go], hi[go]))
        fa, fm, fb = (np.concatenate((x[go], y[go])) for x, y in ((fa, fm), (flm, frm), (fm, fb)))
        whole = np.concatenate((left[go], right[go]))
        tol, max_depth = 0.5 * tol, max_depth - 1
    return result
