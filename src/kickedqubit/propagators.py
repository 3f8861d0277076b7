"""Closed-form propagators for kicked qubits and the no-time-ordering limit.

In the rotating frame, a single kick of strength ``alpha`` at time ``t_k``
on the x axis evolves the system by

    [[cos(a), -i e^{-i dE t_k} sin(a)], [-i e^{i dE t_k} sin(a), cos(a)]],

independent of the observation time. Sequences compose right-to-left, later
kicks on the left. For the equal-and-opposite pair (+a at t1, -a at t2) both
the exact ordered product and the closed no-time-ordering (NTO) exponential
of the mean coupling are available in closed form; their off-diagonal phase
is exp(-i dE (t1 + t2) / 2), the value obtained by composing single-kick
factors (and by direct integration of the mean coupling).

Kicks are :class:`~kickedqubit.pulses.DeltaKick` values on any axis; a z-axis
kick is the phase exp(-i alpha sigma_z) in every frame, since sigma_z commutes
with H0. :func:`kick_generators` is the one rule for kicks that every route shares.
"""

from __future__ import annotations

import math
from itertools import groupby

import numpy as np

from .pulses import DeltaKick, Representation, Schedule, coupling_integral, rotated_axis_matrix
from .su2 import ID2, SIGMA_Z, exp_minus_i_generator


def single_kick(delta_e: float, kick: DeltaKick) -> np.ndarray:
    """Propagator of one kick on any axis: cos(a) I - i sin(a) * (rotated axis matrix).

    Exact because the rotated axis matrix, sigma_z included, squares to the identity.
    """
    r = rotated_axis_matrix(delta_e, kick.t_k, kick.axis)
    return math.cos(kick.alpha) * ID2 - 1j * math.sin(kick.alpha) * r


def kick_generators(delta_e: float, kicks: list[DeltaKick] | tuple[DeltaKick, ...]) -> dict[float, np.ndarray]:
    """Generator G = sum of alpha R(delta_e, t) of the kicks at each time t of ``kicks``, sorted by time.

    Simultaneous kicks act as the single exponential exp(-i G), the limit of
    coincident narrow pulses; ``delta_e`` = 0 gives the unrotated generators.
    """
    return {
        t: sum((rotated_axis_matrix(delta_e, k.t_k, k.axis, k.alpha) for k in group), np.zeros((2, 2), dtype=complex))
        for t, group in groupby(kicks, key=lambda kick: kick.t_k)
    }


def kick_sequence(delta_e: float, kicks: list[DeltaKick] | tuple[DeltaKick, ...]) -> np.ndarray:
    """Ordered product of the kick exponentials of :func:`kick_generators`, later kicks applied last.

    ``kicks`` must be sorted by time ascending (ties allowed); the sequence
    of applications is enforced explicitly rather than inferred.
    """
    kicks = list(kicks)
    for a, b in zip(kicks, kicks[1:]):
        if b.t_k < a.t_k:
            raise ValueError("kicks must be sorted by time ascending")
    u = ID2.copy()
    for e in exp_minus_i_generator(np.reshape(list(kick_generators(delta_e, kicks).values()), (-1, 2, 2))):
        u = e @ u
    return u


def ordered_pair_matrix(delta_e: float, alpha: float, t_minus: float, t_plus: float) -> np.ndarray:
    """Exact propagator of the pair (+alpha, then -alpha) in relative times.

    ``t_minus`` is the separation t2 - t1, ``t_plus`` the sum t1 + t2. Equals
    the product of the two single-kick factors entrywise.
    """
    half = 0.5 * delta_e * t_minus
    phase_sum = 0.5 * delta_e * t_plus
    a = np.exp(-1j * half) * (math.cos(half) + 1j * math.cos(2.0 * alpha) * math.sin(half))
    b = np.exp(-1j * phase_sum) * math.sin(2.0 * alpha) * math.sin(half)
    return np.array([[a, b], [-np.conj(b), np.conj(a)]], dtype=complex)


def nto_pair_matrix(delta_e: float, alpha: float, t_minus: float, t_plus: float) -> np.ndarray:
    """NTO propagator of the same pair: exponential of the mean coupling.

    The rotation angle is chi = 2 alpha sin(dE t_minus / 2); the off-diagonal
    carries the same sum-time phase as the ordered closed form.
    """
    chi = 2.0 * alpha * math.sin(0.5 * delta_e * t_minus)
    phase_sum = 0.5 * delta_e * t_plus
    b = np.exp(-1j * phase_sum) * math.sin(chi)
    return np.array([[math.cos(chi), b], [-np.conj(b), math.cos(chi)]], dtype=complex)


def opposite_kick_pair(delta_e: float, alpha: float, t1: float, t2: float) -> np.ndarray:
    """Exact ordered propagator for kicks +alpha at t1 and -alpha at t2 >= t1."""
    if t2 < t1:
        raise ValueError(f"need t2 >= t1, got t1 = {t1!r}, t2 = {t2!r}")
    return ordered_pair_matrix(delta_e, alpha, t2 - t1, t1 + t2)


def nto_opposite_pair(delta_e: float, alpha: float, t1: float, t2: float) -> np.ndarray:
    """Closed-form NTO propagator for the same +/- kick pair.

    The off-diagonal phase is dE (t1 + t2) / 2, matching both the ordered
    pair and the general path of :func:`nto_propagator`.
    """
    if t2 < t1:
        raise ValueError(f"need t2 >= t1, got t1 = {t1!r}, t2 = {t2!r}")
    return nto_pair_matrix(delta_e, alpha, t2 - t1, t1 + t2)


def nto_propagator(s: Schedule, rep: Representation, times=None) -> np.ndarray:
    """Time ordering removed: :func:`nto_exponential` of the coupling integral to tf, or to each t of ``times``."""
    t = s.observation_times(times).reshape(np.shape(times))
    return nto_exponential(coupling_integral(s, s.t0, t, rep), s.delta_e, t - s.t0, rep)


def nto_exponential(k: np.ndarray, delta_e: float, duration, rep: Representation) -> np.ndarray:
    """exp(-i Gbar duration) for a window whose coupling integral is ``k``, or for each window of a stack.

    ``Gbar`` = k / duration is the time-averaged coupling in the requested
    picture; in the Schrodinger picture the constant -(dE/2) sigma_z term
    joins the exponent, so the generator is the time average of the full Hamiltonian. ``k``
    may be a stack (..., 2, 2) with ``duration`` an array of its shape (...).
    """
    g = k / np.expand_dims(duration, (-2, -1))
    if rep is Representation.SCHRODINGER:
        g = g - 0.5 * delta_e * SIGMA_Z
    return exp_minus_i_generator(g, duration)


def free_propagator(delta_e: float, t: float) -> np.ndarray:
    """exp(-i H0 t) with H0 = -(delta_e/2) sigma_z."""
    return np.array(
        [[np.exp(0.5j * delta_e * t), 0.0], [0.0, np.exp(-0.5j * delta_e * t)]],
        dtype=complex,
    )


def change_representation(
    u: np.ndarray, delta_e: float, t: float, t0: float, to: Representation
) -> np.ndarray:
    """Convert a propagator over [t0, t] between pictures.

    The caller states the target picture; ``u`` is assumed to be in the
    complementary one. Converting back recovers the input.
    """
    if to is Representation.SCHRODINGER:
        return free_propagator(delta_e, t) @ u @ free_propagator(delta_e, -t0)
    return free_propagator(delta_e, -t) @ u @ free_propagator(delta_e, t0)


def schedule_kick_propagator(s: Schedule) -> np.ndarray:
    """Ordered rotating-frame propagator of an all-kick schedule's kicks in [t0, tf]."""
    if s.smooth_pulses():
        raise ValueError("schedule_kick_propagator requires an all-kick schedule")
    return kick_sequence(s.delta_e, s.kicks())
