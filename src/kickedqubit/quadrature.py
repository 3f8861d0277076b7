"""Adaptive Simpson quadrature for scalar- or matrix-valued integrands.

Interval-bisecting Simpson with Richardson correction, as a deterministic
replacement for library quadrature on smooth integrands. The error metric is
the maximum absolute entry, so a single routine serves both scalar integrals
and entrywise integrals of 2x2 complex matrices.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10
MAX_DEPTH = 48


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL, max_depth: int = MAX_DEPTH):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol`` per entry.

    ``f`` may return a float, complex, or ndarray; the result has the same
    shape. Reversed bounds negate the result; equal bounds give zero.
    """
    a = float(a)
    b = float(b)
    if a == b:
        sample = np.asarray(f(a), dtype=complex)
        return np.zeros_like(sample) if sample.ndim else 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    m = 0.5 * (a + b)
    fa = np.asarray(f(a), dtype=complex)
    fm = np.asarray(f(m), dtype=complex)
    fb = np.asarray(f(b), dtype=complex)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = _refine(f, a, b, fa, fm, fb, whole, tol, max_depth)
    if result.ndim == 0:
        value = complex(result)
        return value.real if value.imag == 0.0 else value
    return result


def _refine(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = np.asarray(f(lm), dtype=complex)
    frm = np.asarray(f(rm), dtype=complex)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or np.max(np.abs(delta)) <= 15.0 * tol:
        # Richardson correction: Simpson error on the halved grid is delta/15.
        return left + right + delta / 15.0
    return _refine(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _refine(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )
