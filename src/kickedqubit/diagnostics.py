"""Observable-level studies: ordering-difference surfaces and pulse scans.

For the equal-and-opposite kick pair, the transfer probabilities collapse to
two scalar closed forms in eps = sin(dE t_minus / 2) and phi = 2 alpha:

    ordered:  P2     = (eps * sin(phi))^2
    NTO:      P2_nto = sin(eps * phi)^2

Their difference is the observable footprint of time ordering; it vanishes
on both axes, is nonpositive for small arguments, and oscillates in sign as
either argument grows. The scan functions regenerate the Gaussian-pulse
studies (kick-width ladder and observation-time dependence) by combining the
RK4 engine with the closed NTO propagators.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import NamedTuple

import numpy as np

from .ode import MAX_RECORDS, propagate
from .propagators import nto_propagator
from .pulses import Gaussian, Representation, Schedule, _require_finite
from .su2 import PauliAxis

TWO_PI = 2.0 * math.pi


def p2_ordered(epsilon: float, phi: float) -> float:
    """Exact pair transfer probability (eps * sin(phi))^2."""
    if not (abs(epsilon) <= 1.0 and math.isfinite(phi)):  # a NaN fails too
        raise ValueError(f"epsilon is a sine and must lie in [-1, 1], phi must be finite; got {epsilon!r}, {phi!r}")
    return (epsilon * math.sin(phi)) ** 2


def p2_nto(epsilon: float, phi: float) -> float:
    """Pair transfer probability without time ordering, sin(eps * phi)^2."""
    if not (abs(epsilon) <= 1.0 and math.isfinite(phi)):  # a NaN fails too
        raise ValueError(f"epsilon is a sine and must lie in [-1, 1], phi must be finite; got {epsilon!r}, {phi!r}")
    return math.sin(epsilon * phi) ** 2


class SurfacePoint(NamedTuple):
    epsilon: float
    phi: float
    p2_ordered: float
    p2_nto: float
    difference: float


def default_surface_grids() -> tuple[np.ndarray, np.ndarray]:
    """eps in [0, 1] step 0.02 and phi in [0, 2 pi] step 0.05.

    Wide enough to show both the nonpositive small-parameter lobe and the
    oscillatory region.
    """
    eps = np.round(np.arange(0.0, 1.0 + 1e-9, 0.02), 10)
    phi = np.arange(0.0, TWO_PI + 1e-12, 0.05)
    return eps, phi


def ordering_difference_surface(eps_grid, phi_grid) -> list[SurfacePoint]:
    """Evaluate both closed forms on the grid product, row-major in (eps, phi).

    The output ordering (eps outer, phi inner) is fixed so serialized
    surfaces are stable byte-for-byte.
    """
    if len(eps_grid) * len(phi_grid) > MAX_RECORDS:
        raise ValueError(f"{len(eps_grid)} x {len(phi_grid)} surface points exceed the {MAX_RECORDS} record limit")
    points = []
    for eps in eps_grid:
        eps = float(eps)
        for phi in phi_grid:
            phi = float(phi)
            ordered = p2_ordered(eps, phi)
            nto = p2_nto(eps, phi)
            points.append(SurfacePoint(eps, phi, ordered, nto, ordered - nto))
    return points


class MapRegime(enum.Enum):
    PERTURBATIVE = "perturbative"
    KICKED_PERTURBATIVE = "kicked-perturbative"
    KICKED_ADIABATIC = "kicked-adiabatic"
    ADIABATIC = "adiabatic"
    INTERMEDIATE = "intermediate"


# Phase-angle boundaries for the regime map. The map's tick marks sit at
# 2 pi with no printed numbers, so these cutoffs are presentation heuristics,
# not physics: below 0.2 * 2pi a phase is "small", above 5 * 2pi "large".
SMALL_PHASE = 0.2 * TWO_PI
LARGE_PHASE = 5.0 * TWO_PI


def classify_regime(half_split_phase: float, strength_phase: float) -> MapRegime:
    """Place a pulse on the (dE tau / 2, integrated strength) plane.

    ``half_split_phase`` is the dimensionless level-splitting phase
    accumulated over the pulse; ``strength_phase`` is the integrated field
    strength. Small strength with large splitting phase is perturbative;
    small splitting phase makes the pulse an effective kick, perturbative or
    adiabatic according to the strength; both large is adiabatic; anything
    near the boundaries is reported as intermediate.
    """
    _require_finite(half_split_phase=half_split_phase, strength_phase=strength_phase)
    if half_split_phase < 0.0 or strength_phase < 0.0:
        raise ValueError("phase angles must be nonnegative")
    split_small = half_split_phase < SMALL_PHASE
    split_large = half_split_phase > LARGE_PHASE
    strength_small = strength_phase < SMALL_PHASE
    strength_large = strength_phase > LARGE_PHASE
    if split_small and strength_small:
        return MapRegime.KICKED_PERTURBATIVE
    if split_small and strength_large:
        return MapRegime.KICKED_ADIABATIC
    if split_large and strength_small:
        return MapRegime.PERTURBATIVE
    if split_large and strength_large:
        return MapRegime.ADIABATIC
    return MapRegime.INTERMEDIATE


class KickLimitRow(NamedTuple):
    tau: float
    p2_rk4_ordered: float
    p2_nto_interaction: float
    p2_nto_schrodinger: float


class ObservationRow(NamedTuple):
    tf: float
    p2_ordered: float
    p2_nto_schrodinger: float
    p2_nto_interaction: float


def _window(delta_e, pulses, tf) -> Schedule:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide pulses may overhang t0 = 0
        return Schedule(delta_e, pulses, 0.0, tf)


def transfer_probabilities(s: Schedule, times: float | np.ndarray) -> tuple[float, float, float] | list[tuple]:
    """Transfer probability |U_21|^2 over [t0, t]: (ordered, NTO interaction, NTO Schrodinger) at each time t.

    ``times`` is ``s.tf``, for one triple, or a strictly ascending array in (t0, tf], for a list of triples:
    the (1, 0) entries of one :func:`propagate` (rotating frame) and of one :func:`nto_propagator` per picture.
    """
    us = (propagate(s, times), *(nto_propagator(s, rep, times) for rep in (Representation.INTERACTION,
                                                                          Representation.SCHRODINGER)))
    # The scalar abs of each entry: numpy's array abs can differ from it in the last bit.
    triples = [tuple(float(abs(z) ** 2) for z in entries) for entries in zip(*(u[..., 1, 0].ravel() for u in us))]
    return triples if np.ndim(times) else triples[0]


def kick_limit_scan(delta_e: float, alpha: float, t_k: float, taus: list[float]) -> list[KickLimitRow]:
    """Final transfer probability versus pulse width on [0, t_k + 8 tau].

    Each row holds the time-ordered RK4 result alongside the NTO value in
    both pictures for the same window. As tau shrinks the ordered column
    approaches the ideal kick value sin(alpha)^2; the interaction-picture
    NTO column depends only on dE tau / 2.
    """
    taus = [float(t) for t in taus]
    if any(t <= 0.0 for t in taus):
        raise ValueError("pulse widths must be positive")
    if any(b >= a for a, b in zip(taus, taus[1:])):
        raise ValueError("pulse widths must be strictly descending")
    rows = []
    for tau in taus:
        s = _window(delta_e, (Gaussian(alpha, t_k, tau, PauliAxis.X),), t_k + 8.0 * tau)
        rows.append(KickLimitRow(tau, *transfer_probabilities(s, s.tf)))
    return rows


def observation_time_scan(
    delta_e: float, alpha: float, t_k: float, tau: float, tf_grid: list[float] | np.ndarray
) -> list[ObservationRow]:
    """Transfer probabilities versus observation time for one Gaussian pulse.

    One call of :func:`transfer_probabilities` on the window [0, max tf] at
    every observation time. The ordered (rotating-frame) column is exactly
    constant beyond the pulse support. The NTO value damps in the Schrodinger
    picture as the average field shrinks against the splitting, but settles
    to a constant in the interaction picture.
    """
    tf_grid = [float(t) for t in tf_grid]
    if any(t <= t_k for t in tf_grid):
        raise ValueError("observation times must lie beyond the pulse center t_k")
    if not tf_grid:
        return []

    rows = transfer_probabilities(_window(delta_e, (Gaussian(alpha, t_k, tau, PauliAxis.X),), tf_grid[-1]), tf_grid)
    return [ObservationRow(tf, p2, p2_s, p2_i) for tf, (p2, p2_i, p2_s) in zip(tf_grid, rows)]
