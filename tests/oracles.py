"""Slow, independent routes kept for the tests to check the library against.

``recursive_simpson`` is adaptive Simpson as the library had it before its
quadrature went level by level: one scalar-argument integrand call per node,
refined depth first; ``recursive_gauss_legendre`` is the library's panel rule
refined the same way. ``coupling_sum`` is the pointwise coupling written out as
a sum over pulses of ``value_at`` times the axis matrix, rotated by explicit
conjugation.
``piecewise_constant_product`` is the exact propagator of a schedule of kicks
and Rectangular pulses, and ``truncated_nto_reference`` the NTO transfer
probability of a schedule cut short at each observation time.
"""

import warnings

import numpy as np

from kickedqubit.propagators import change_representation, kick_generators, nto_propagator
from kickedqubit.pulses import Rectangular, Representation, Schedule, value_at
from kickedqubit.su2 import SIGMA_Z, exp_minus_i_generator, pauli


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
    """sum_p V_p(t) sigma_axis at one time, each axis rotated to t in the interaction picture; kicks raise.

    The rotation is written out as D sigma D^dagger with D = exp(i H0 t) =
    diag(exp(-i dE t / 2), exp(+i dE t / 2)), H0 = -(dE/2) sigma_z, so it
    shares no code with the library's rotation.
    """
    rate = delta_e if rep is Representation.INTERACTION else 0.0
    d = np.diag([np.exp(-0.5j * rate * t), np.exp(0.5j * rate * t)])
    v = np.zeros((2, 2), dtype=complex)
    for p in pulses:
        v = v + value_at(p, t) * (d @ pauli(p.axis) @ d.conj().T)
    return v


def piecewise_constant_product(s):
    """Exact rotating-frame propagator of a schedule of kicks and Rectangular pulses over [t0, tf].

    Between cuts at kicks and pulse edges H is constant in the Schrodinger
    picture, so each piece is one closed-form SU(2) exponential, the Rabi
    formula (Rabi 1937, Phys. Rev. 51:652); the kicks at a cut act as exp(-i G).
    """
    rects = [p for p in s.pulses if isinstance(p, Rectangular)]
    kicks = kick_generators(0.0, s.kicks())
    edges = {t for p in rects for t in (p.t_start, p.t_start + p.tau)}
    cuts = sorted({s.t0, s.tf, *kicks, *(t for t in edges if s.t0 < t < s.tf)})
    u = exp_minus_i_generator(kicks.get(s.t0, np.zeros((2, 2))))
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        h = -0.5 * s.delta_e * SIGMA_Z + sum(value_at(p, mid) * pauli(p.axis) for p in rects)
        u = exp_minus_i_generator(h, b - a) @ u
        if b in kicks:
            u = exp_minus_i_generator(kicks[b]) @ u
    return change_representation(u, s.delta_e, s.tf, s.t0, Representation.INTERACTION)


def truncated_nto_reference(s, rep, grid):
    """|U_21|^2 of nto_propagator on the schedule cut to [t0, tf], for each tf > t0 of ``grid``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation clips pulse support by design
        return [float(abs(nto_propagator(Schedule(s.delta_e, s.pulses, s.t0, tf), rep)[1, 0]) ** 2) for tf in grid]


def recursive_gauss_legendre(f, a, b, tol, max_depth, x, w):
    """Adaptive Gauss-Legendre panels with the rule (x, w) on [-1, 1], refined depth first, one node per call of ``f``.

    A panel is accepted as left + right when that is within ``tol`` (max entry)
    of its whole; each level halves ``tol``, and at ``max_depth`` every panel is accepted.
    """

    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        return half * sum(wj * np.asarray(f(lo + half + half * xj), dtype=complex) for xj, wj in zip(x, w))

    def refine(lo, hi, whole, tol, depth):
        m = 0.5 * (lo + hi)
        left, right = rule(lo, m), rule(m, hi)
        if depth <= 0 or np.max(np.abs(left + right - whole)) <= tol:
            return left + right
        return refine(lo, m, left, 0.5 * tol, depth - 1) + refine(m, hi, right, 0.5 * tol, depth - 1)

    return refine(float(a), float(b), rule(float(a), float(b)), tol, max_depth)
