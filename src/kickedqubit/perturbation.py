"""Second-order expansion of the evolution and the ordering correction.

Through second order in the rotating-frame coupling V, the evolution is

    U = 1 - i I1 - I2_ordered,      I1 = integral of V,
    I2_ordered = double integral of V(t1) V(t2) over t0 <= t2 <= t1 <= tf.

Splitting the product into its anticommutator and commutator halves shows
that the ordered double integral equals the unordered square -(1/2) I1^2
plus the ordered commutator integral: the commutator half carries every
effect of time ordering at this order. This module computes all the pieces
in one sweep over time, in which delta kicks are events at edges and smooth
pulses are integrated between them: the shared adaptive Gauss-Legendre
quadrature over t1 samples V and the inner integral, in closed form, at every
node of a round in one call. The identity can thus be checked rather than assumed.

Equivalently, the step function ordering weight decomposes as
Theta(t1 - t2) = 1/2 + sgn(t1 - t2)/2; the constant half reproduces the
unordered square and the sign half the commutator term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .propagators import kick_generators
from .pulses import Representation, Schedule, coupling_samples, pulse_coupling_integral, pulse_support
from .quadrature import adaptive_gauss_legendre
from .su2 import ID2

# Identity tolerance of the gap quadrature; kick events alone are exact to rounding.
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


def dyson_second_order(s: Schedule) -> SecondOrderBreakdown:
    """All five second-order pieces for the schedule, rotating frame fixed.

    One sweep over the sorted edges: the times of :meth:`Schedule.kicks` and
    the clipped ends of every smooth support. It carries K, the closed-form
    integral of V from t0. The kicks at an edge, g from :func:`kick_generators`, add
    g (K + g/2) to the ordered integral, the Theta(0) = 1/2 rule for
    equal-time pairs, and [g, K] to the commutator one. Each gap between
    edges adds an adaptive Gauss-Legendre quadrature over t1 of (V K, V K - K V),
    analytic on the gap, where V sums the smooth pulses active there and K(t1)
    adds their closed-form integrals from the gap's start, at every node of a round at once.
    """
    kicks = kick_generators(s.delta_e, s.kicks())
    supports = [(p, *pulse_support(p)) for p in s.smooth_pulses()]
    edges = sorted(kicks.keys() | {min(max(t, s.t0), s.tf) for _, lo, hi in supports for t in (lo, hi)})
    k = np.zeros((2, 2), dtype=complex)
    total = np.zeros((2, 2, 2), dtype=complex)  # ordered integrals of (V1 V2, [V1, V2])
    for a, b in zip([s.t0] + edges, edges):
        active = [p for p, lo, hi in supports if lo < b and hi > a]
        if active:

            def integrand(t: np.ndarray) -> np.ndarray:
                v = coupling_samples(s.delta_e, active, t, Representation.INTERACTION)
                kt = k + sum(pulse_coupling_integral(p, s.delta_e, a, t, Representation.INTERACTION) for p in active)
                vk = v @ kt
                return np.stack((vk, vk - kt @ v), axis=1)

            total = total + adaptive_gauss_legendre(integrand, a, b, _OUTER_TOL)
            k = k + sum(pulse_coupling_integral(p, s.delta_e, a, b, Representation.INTERACTION) for p in active)
        if b in kicks:
            g = kicks[b]
            total = total + np.stack((g @ (k + 0.5 * g), g @ k - k @ g))
            k = k + g
    # K is now I1, the integral of V over the window.
    return SecondOrderBreakdown(
        zeroth=ID2.copy(),
        first=-1j * k,
        second_ordered=-total[0],
        second_nto=-0.5 * (k @ k),
        commutator_correction=-0.5 * total[1],
    )
