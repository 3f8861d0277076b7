"""Slow, independent routes kept for the tests to check the library against.

``recursive_simpson`` is adaptive Simpson as the library had it before its
quadrature went level by level: one scalar-argument integrand call per node,
refined depth first. ``coupling_sum`` is the pointwise coupling written out as
a sum over pulses of ``value_at`` times the (rotated) axis matrix.
"""

import numpy as np

from kickedqubit.pulses import Representation, rotated_axis_matrix, value_at
from kickedqubit.su2 import pauli


def recursive_simpson(f, a, b, tol, max_depth=48):
    """Integrate ``f``, which takes one float, over [a, b] to absolute tolerance ``tol`` per entry."""
    a = float(a)
    b = float(b)
    if a == b:
        sample = np.asarray(f(a), dtype=complex)
        return np.zeros_like(sample) if sample.ndim else 0.0
    if a > b:
        return -recursive_simpson(f, b, a, tol, max_depth)
    m = 0.5 * (a + b)
    fa, fm, fb = (np.asarray(f(t), dtype=complex) for t in (a, m, b))
    result = _refine(f, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, max_depth)
    if result.ndim == 0:
        value = complex(result)
        return value.real if value.imag == 0.0 else value
    return result


def _refine(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm = np.asarray(f(0.5 * (a + m)), dtype=complex)
    frm = np.asarray(f(0.5 * (m + b)), dtype=complex)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or np.max(np.abs(delta)) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _refine(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _refine(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def coupling_sum(delta_e, pulses, t, rep):
    """sum_p V_p(t) sigma_axis at one time, each axis rotated to t in the interaction picture; kicks raise."""
    v = np.zeros((2, 2), dtype=complex)
    for p in pulses:
        axis = rotated_axis_matrix(delta_e, t, p.axis) if rep is Representation.INTERACTION else pauli(p.axis)
        v = v + value_at(p, t) * axis
    return v
