"""Fixed-step RK4 integration of the two-state equations, for any schedule.

Finite-width pulses are integrated either in the Schrodinger picture,

    i da1/dt = -(dE/2) a1 + V(t) a2
    i da2/dt = +(dE/2) a2 + V(t) a1        (x coupling),

or in the interaction picture, i da/dt = V_I(t) a, with V_I the rotated
coupling. The step is fixed (no adaptivity) so repeated runs are
bit-reproducible; convergence is checked by step halving.

:func:`evolve` cuts the window where V is not smooth: at the delta kicks,
which act there through their closed form from
:mod:`kickedqubit.propagators`, and at the edges of rectangular pulses, so
no RK4 step straddles a jump. :func:`propagate` is its final value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from .propagators import kick_sequence, nto_propagator
from .pulses import Gaussian, Rectangular, Representation, Schedule, coupling_at, pulse_support
from .su2 import SIGMA_Z
from .units import rabi_period

MAX_STEPS = 10**9
# Cap on the states one evolve may record (steps / record_every). Each takes
# 72 bytes (a float64 time and a complex 2x2 U, preallocated): 10^6 is ~72 MB.
MAX_RECORDS = 10**6


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


def evolve(s: Schedule, cfg: IntegratorConfig) -> Trajectory:
    """RK4 propagator U(t, t0) from t0 to tf, recorded every ``cfg.record_every`` steps and at each cut.

    The window is cut at the times of :meth:`Schedule.kicks` and at the
    rectangular-pulse edges inside it. Each piece takes ceil(length / dt)
    equal steps, ends on its cut and samples only the pulses whose support
    overlaps it, once per node and midpoint. The kicks at a cut act through
    :func:`kick_sequence` (unrotated in the Schrodinger picture) before U is
    recorded there. In the interaction picture U is carried unchanged across
    a piece that no support overlaps.

    Both basis columns advance together as a 2x2 matrix; column j of U is
    the state that starts in level j + 1. U is never renormalized: its
    unitarity defect at tf is the standard integration diagnostic.
    """
    tau_min, period = fastest_scales(s)
    threshold = min(tau_min / 20.0, period / 200.0)
    if cfg.dt > threshold:
        warnings.warn(f"dt = {cfg.dt:g} does not resolve the fastest scale (warning threshold {threshold:g})",
                      stacklevel=2)

    kicks = {t: tuple(group) for t, group in groupby(s.kicks(), key=lambda kick: kick.t_k)}
    edges = {t for p in s.pulses if isinstance(p, Rectangular) for t in pulse_support(p)}
    bounds = [s.t0, *sorted(t for t in edges | kicks.keys() if s.t0 < t < s.tf), s.tf]
    pieces = [(a, b, max(1, math.ceil((b - a) / cfg.dt))) for a, b in zip(bounds, bounds[1:])]
    n_steps = sum(n for _, _, n in pieces)
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps} steps exceed the {MAX_STEPS} step limit")
    every = cfg.record_every
    if n_steps // every > MAX_RECORDS:
        raise ValueError(f"{n_steps // every} recorded states exceed the {MAX_RECORDS} record limit")

    schrodinger = cfg.representation is Representation.SCHRODINGER
    h0 = -0.5 * s.delta_e * SIGMA_Z
    frame = 0.0 if schrodinger else s.delta_e
    supports = [(p, *pulse_support(p)) for p in s.smooth_pulses()]
    u = kick_sequence(frame, kicks.get(s.t0, ()))
    rows = 1 + n_steps // every + len(pieces)  # t0, every record_every-th step, each cut
    times, propagators = np.empty(rows), np.empty((rows, 2, 2), dtype=complex)
    times[0], propagators[0] = s.t0, u
    recorded = done = 0
    for a, b, n in pieces:
        h = (b - a) / n
        active = [p for p, lo, hi in supports if lo < b and hi > a]
        stepping = schrodinger or bool(active)

        def sample(t: float) -> np.ndarray:
            v = coupling_at(s.delta_e, active, t, cfg.representation)
            return v + h0 if schrodinger else v

        if stepping:
            t, g0 = a, sample(a)
        # A piece without RK4 arithmetic visits only the nodes it records.
        for k in range(1, n + 1) if stepping else [*range(every - done % every, n, every), n]:
            end = b if k == n else a + k * h
            if stepping:
                mid = sample(t + 0.5 * h)
                g1 = sample(end)
                k1 = -1j * (g0 @ u)
                k2 = -1j * (mid @ (u + 0.5 * h * k1))
                k3 = -1j * (mid @ (u + 0.5 * h * k2))
                k4 = -1j * (g1 @ (u + h * k3))
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t, g0 = end, g1
            if k == n and b in kicks:
                u = kick_sequence(frame, kicks[b]) @ u
            if (done + k) % every == 0 or k == n:
                recorded += 1
                times[recorded], propagators[recorded] = end, u
        done += n
    if not np.all(np.isfinite(u)):
        raise FloatingPointError(f"RK4 propagator is not finite at h = {h:g}; the step is unstable")
    return Trajectory(times[: recorded + 1], propagators[: recorded + 1])


def propagate(s: Schedule) -> np.ndarray:
    """Time-ordered rotating-frame propagator of ``s`` over [t0, tf]: the final value of :func:`evolve`.

    Any schedule, integrated in the interaction picture at :func:`default_step`.
    """
    return evolve(s, IntegratorConfig(default_step(s), Representation.INTERACTION, record_every=10**6)).propagators[-1]


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
    p2 = [evolve(s, replace(cfg, dt=cfg.dt / divisor)).probabilities()[-1, 1] for divisor in (1, 2, 4)]
    coarse = p2[0] - p2[1]
    fine = p2[1] - p2[2]
    floor = 1e-13
    if abs(fine) < floor or abs(coarse) < floor:
        return p2[0], p2[1], math.nan
    return p2[0], p2[1], coarse / fine
