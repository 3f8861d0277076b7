"""Fixed-step RK4 integration of the two-state equations.

Finite-width pulses are integrated either in the Schrodinger picture,

    i da1/dt = -(dE/2) a1 + V(t) a2
    i da2/dt = +(dE/2) a2 + V(t) a1        (x coupling),

or in the interaction picture, i da/dt = V_I(t) a, with V_I the rotated
coupling. The step is fixed (no adaptivity) so repeated runs are
bit-reproducible; convergence is checked by step halving.

Delta kicks have no pointwise field, so :func:`evolve` rejects them.
:func:`propagate` takes any schedule: it splits the window at the kick
times, runs :func:`evolve` on the smooth pieces between them and applies the
kicks' closed form from :mod:`kickedqubit.propagators` at each split.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .propagators import kick_sequence, nto_propagator
from .pulses import (
    Gaussian, Rectangular, Representation, Schedule, interaction_potential, pulse_support, schrodinger_hamiltonian
)
from .units import rabi_period

MAX_STEPS = 10**9


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    representation: Representation = Representation.SCHRODINGER
    record_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"step size must be positive and finite, got {self.dt!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """Recorded propagators: ``propagators[i]`` is U(times[i], t0), shape (n, 2, 2)."""

    times: np.ndarray
    propagators: np.ndarray

    def probabilities(self) -> np.ndarray:
        """Columns (P1, P2) along the trajectory, starting in state 1."""
        return np.abs(self.propagators[:, :, 0]) ** 2


def fastest_scales(s: Schedule) -> tuple[float, float]:
    """(shortest pulse width, free oscillation period); inf when absent."""
    taus = [p.tau for p in s.pulses if isinstance(p, (Gaussian, Rectangular))]
    tau_min = min(taus) if taus else math.inf
    return tau_min, rabi_period(s.delta_e)


def default_step(s: Schedule) -> float:
    """Step resolving the pulse (40 samples) and the free period (400)."""
    tau_min, period = fastest_scales(s)
    dt = min(tau_min / 40.0, period / 400.0)
    if not math.isfinite(dt):
        dt = s.duration() / 400.0
    return dt


def _generator(s: Schedule, rep: Representation):
    if rep is Representation.SCHRODINGER:
        return lambda t: schrodinger_hamiltonian(s, t)
    return lambda t: interaction_potential(s, t)


def evolve(s: Schedule, cfg: IntegratorConfig) -> Trajectory:
    """RK4 propagator U(t, t0) from t0 to tf, recorded every ``cfg.record_every`` steps and at tf.

    The two canonical basis columns are advanced together as a 2x2 matrix
    (one Hamiltonian evaluation serves both), which is the same arithmetic
    as integrating each column independently; column j of U is the state
    that starts in level j + 1. U is never renormalized: its unitarity
    defect at tf is the standard integration diagnostic.
    """
    if s.has_kicks():
        raise ValueError("delta kicks cannot be integrated; use the kick propagators")

    tau_min, period = fastest_scales(s)
    threshold = min(tau_min / 20.0, period / 200.0)
    if cfg.dt > threshold:
        warnings.warn(
            f"dt = {cfg.dt:g} does not resolve the fastest scale "
            f"(warning threshold {threshold:g})",
            stacklevel=2,
        )

    n_steps = max(1, math.ceil(s.duration() / cfg.dt))
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the {MAX_STEPS} step limit")
    h = s.duration() / n_steps

    gen = _generator(s, cfg.representation)
    u = np.eye(2, dtype=complex)
    times = [s.t0]
    propagators = [u]
    t = s.t0
    for step in range(1, n_steps + 1):
        k1 = -1j * (gen(t) @ u)
        mid = gen(t + 0.5 * h)
        k2 = -1j * (mid @ (u + 0.5 * h * k1))
        k3 = -1j * (mid @ (u + 0.5 * h * k2))
        # Not the next step's gen(t): t + h and t0 + step * h round differently.
        k4 = -1j * (gen(t + h) @ (u + h * k3))
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = s.t0 + step * h
        if step % cfg.record_every == 0 or step == n_steps:
            times.append(t)
            propagators.append(u)
    if not np.all(np.isfinite(u)):
        raise FloatingPointError(f"RK4 propagator is not finite at h = {h:g}; the step is unstable")
    return Trajectory(np.array(times), np.array(propagators))


def propagate(s: Schedule) -> np.ndarray:
    """Time-ordered rotating-frame propagator of ``s`` over [t0, tf], for any schedule.

    The window is split at the times of :meth:`Schedule.kicks`. Each piece
    that a smooth support overlaps is integrated by RK4 in the interaction
    picture at :func:`default_step` of the whole schedule, and the kicks at
    each split are applied by :func:`kick_sequence`. Interaction-picture
    propagators compose, so the product is the propagator of the window.
    """
    cfg = IntegratorConfig(default_step(s), Representation.INTERACTION, record_every=10**6)
    smooth = s.smooth_pulses()
    splits = [(t, tuple(kicks)) for t, kicks in groupby(s.kicks(), key=lambda kick: kick.t_k)]
    u = np.eye(2, dtype=complex)
    start = s.t0
    for end, kicks in splits + [(s.tf, ())]:
        if end > start and any(lo < end and hi > start for lo, hi in map(pulse_support, smooth)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # pieces clip pulse supports by design
                piece = Schedule(s.delta_e, smooth, start, end)
            u = evolve(piece, cfg).propagators[-1] @ u
        if kicks:
            u = kick_sequence(s.delta_e, kicks) @ u
        start = end
    return u


def evolve_nto_reference(
    s: Schedule, rep: Representation, tf_grid: list[float] | np.ndarray
) -> list[tuple[float, float]]:
    """Transfer probability without time ordering versus observation time.

    For each T_f the schedule is truncated to [t0, T_f] and the NTO
    propagator's |U_21|^2 from state 1 is reported; T_f = t0 gives exactly 0.
    """
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # truncation clips pulse support by design
        for tf in tf_grid:
            tf = float(tf)
            if tf < s.t0:
                raise ValueError(f"observation time {tf!r} precedes t0 = {s.t0!r}")
            if tf == s.t0:
                out.append((tf, 0.0))
                continue
            truncated = Schedule(s.delta_e, s.pulses, s.t0, tf)
            u = nto_propagator(truncated, rep)
            out.append((tf, float(abs(u[1, 0]) ** 2)))
    return out


def convergence_check(s: Schedule, cfg: IntegratorConfig) -> tuple[float, float, float]:
    """Final P2 from state 1 at dt and dt/2, plus the Richardson step-halving ratio.

    The ratio (P2(dt) - P2(dt/2)) / (P2(dt/2) - P2(dt/4)) approaches 16 for
    clean fourth-order convergence. When the differences sit at the rounding
    floor (pulse-free runs, or dt already converged past double precision)
    the ratio is flagged as NaN rather than reported as noise.
    """
    p2 = []
    for divisor in (1, 2, 4):
        run_cfg = IntegratorConfig(cfg.dt / divisor, cfg.representation, cfg.record_every)
        p2.append(evolve(s, run_cfg).probabilities()[-1, 1])
    coarse = p2[0] - p2[1]
    fine = p2[1] - p2[2]
    floor = 1e-13
    if abs(fine) < floor or abs(coarse) < floor:
        return p2[0], p2[1], math.nan
    return p2[0], p2[1], coarse / fine
