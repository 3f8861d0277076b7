"""Second-order expansion of the evolution and the ordering correction.

Through second order in the rotating-frame coupling V, the evolution is

    U = 1 - i I1 - I2_ordered,      I1 = integral of V,
    I2_ordered = double integral of V(t1) V(t2) over t0 <= t2 <= t1 <= tf.

Splitting the product into its anticommutator and commutator halves shows
that the ordered double integral equals the unordered square -(1/2) I1^2
plus the ordered commutator integral: the commutator half carries every
effect of time ordering at this order. This module computes all the pieces
independently (exact finite sums for kick schedules; for smooth ones the
shared adaptive Simpson over t1 with the inner integral in closed form) so
the identity can be checked rather than assumed.

Equivalently, the step function ordering weight decomposes as
Theta(t1 - t2) = 1/2 + sgn(t1 - t2)/2; the constant half reproduces the
unordered square and the sign half the commutator term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pulses import (
    Representation,
    Schedule,
    coupling_integral,
    pulse_support,
    rotated_axis_matrix,
    value_at,
)
from .quadrature import adaptive_simpson
from .su2 import ID2

# Identity tolerance for the quadrature path; kick sums are exact to rounding.
TOL_QUAD2 = 1e-8

_OUTER_TOL = 1e-9


@dataclass(frozen=True)
class SecondOrderBreakdown:
    """The five second-order pieces of the rotating-frame evolution.

    ``second_ordered`` equals ``second_nto + commutator_correction`` up to
    quadrature tolerance; that identity is the content of the module.
    """

    zeroth: np.ndarray
    first: np.ndarray
    second_ordered: np.ndarray
    second_nto: np.ndarray
    commutator_correction: np.ndarray

    def identity_residual(self) -> float:
        """Max-entry residual of ordered - nto - correction."""
        r = self.second_ordered - self.second_nto - self.commutator_correction
        return float(np.max(np.abs(r)))

    def through_second_order(self) -> np.ndarray:
        """1 + first + second_ordered (the truncated evolution operator)."""
        return self.zeroth + self.first + self.second_ordered


def theta_split_weights(t1: float, t2: float) -> tuple[float, float]:
    """Decompose the ordering step Theta(t1 - t2) as 1/2 + sgn/2.

    Returns (average, ordering) with average always 1/2 and ordering +/-1/2.
    Coincident times are excluded: they are measure zero for quadrature and
    carry the 1/2 convention implicitly.
    """
    if t1 == t2:
        raise ValueError("theta split undefined at t1 == t2")
    return 0.5, math.copysign(0.5, t1 - t2)


def _breakdown(i1: np.ndarray, ordered: np.ndarray, commutator: np.ndarray) -> SecondOrderBreakdown:
    """The five pieces from I1 and the ordered integrals of V(t1) V(t2) and [V(t1), V(t2)]."""
    return SecondOrderBreakdown(
        zeroth=ID2.copy(),
        first=-1j * i1,
        second_ordered=-ordered,
        second_nto=-0.5 * (i1 @ i1),
        commutator_correction=-0.5 * commutator,
    )


def _kick_breakdown(s: Schedule) -> SecondOrderBreakdown:
    moments = [
        (p.alpha, p.t_k, rotated_axis_matrix(s.delta_e, p.t_k, p.axis)) for p in s.pulses
    ]
    i1 = sum((a * r for a, _, r in moments), np.zeros((2, 2), dtype=complex))

    ordered = np.zeros((2, 2), dtype=complex)
    correction = np.zeros((2, 2), dtype=complex)
    for a_i, t_i, r_i in moments:
        for a_j, t_j, r_j in moments:
            if t_i > t_j:
                ordered = ordered + a_i * a_j * (r_i @ r_j)
                correction = correction + a_i * a_j * (r_i @ r_j - r_j @ r_i)
            elif t_i == t_j:
                # Equal-time pairs (including self pairs) enter the ordered
                # simplex with weight 1/2, the Theta(0) = 1/2 convention.
                ordered = ordered + 0.5 * a_i * a_j * (r_i @ r_j)
    return _breakdown(i1, ordered, correction)


def _smooth_breakdown(s: Schedule) -> SecondOrderBreakdown:
    # Outer adaptive Simpson in t1, once per pulse over its clipped support, on
    # the stacked integrand (V_p K, V_p K - K V_p). V_p is that pulse's rotated
    # coupling at t1, so the pulses' terms sum to V; K(t1) is the closed-form
    # integral of the whole coupling from t0 to t1.
    total = np.zeros((2, 2, 2), dtype=complex)
    for p in s.pulses:
        lo, hi = pulse_support(p)
        lo, hi = max(lo, s.t0), min(hi, s.tf)
        if hi <= lo:
            continue

        def integrand(t: float) -> np.ndarray:
            v = value_at(p, t) * rotated_axis_matrix(s.delta_e, t, p.axis)
            k = coupling_integral(s, s.t0, t, Representation.INTERACTION)
            vk = v @ k
            return np.stack((vk, vk - k @ v))

        total = total + adaptive_simpson(integrand, lo, hi, _OUTER_TOL, 40)
    i1 = coupling_integral(s, s.t0, s.tf, Representation.INTERACTION)
    return _breakdown(i1, total[0], total[1])


def dyson_second_order(s: Schedule) -> SecondOrderBreakdown:
    """All five second-order pieces for the schedule, rotating frame fixed.

    Kick schedules use exact finite sums over ordered kick pairs; smooth
    schedules use adaptive Simpson over t1, with the inner integral in closed form.
    Mixing kicks with finite-width pulses is rejected: the simplex handling
    at a kick inside a smooth pulse is ambiguous.
    """
    has_kicks = s.has_kicks()
    if has_kicks and len(s.smooth_pulses()) > 0:
        raise ValueError("mixed kick and smooth schedules are not supported at second order")
    if has_kicks or not s.pulses:
        return _kick_breakdown(s)
    return _smooth_breakdown(s)


def phase_orthogonality_check(s: Schedule) -> tuple[float, float]:
    """Structure of the ordering correction for x-coupled schedules.

    For couplings along x only, the commutator of rotated couplings is
    proportional to sigma_z with an imaginary coefficient, so the correction
    must be diagonal with purely imaginary entries. Returns the largest
    magnitude found in the forbidden components: (max off-diagonal entry,
    max real part on the diagonal). Both should sit at quadrature tolerance
    for x-coupled schedules; for mixed axes the values are reported without
    any expectation attached.
    """
    c = dyson_second_order(s).commutator_correction
    max_offdiag = float(max(abs(c[0, 1]), abs(c[1, 0])))
    max_real_diag = float(max(abs(c[0, 0].real), abs(c[1, 1].real)))
    return max_offdiag, max_real_diag


__all__ = [
    "TOL_QUAD2",
    "SecondOrderBreakdown",
    "dyson_second_order",
    "theta_split_weights",
    "phase_orthogonality_check",
]
