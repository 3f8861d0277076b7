"""Fixed-step RK4 integration of the two-state equations, for any schedule.

Finite-width pulses are integrated either in the Schrodinger picture,

    i da1/dt = -(dE/2) a1 + V(t) a2
    i da2/dt = +(dE/2) a2 + V(t) a1        (x coupling),

or in the interaction picture, i da/dt = V_I(t) a, with V_I the rotated
coupling. The step is fixed (no adaptivity) so repeated runs are
bit-reproducible; convergence is checked by step halving.

:func:`evolve` cuts the window where V is not smooth: at the delta kicks, which act there as exp(-i G) with G from
:func:`kickedqubit.propagators.kick_generators`, and at the edges of rectangular pulses, so no RK4 step straddles a
jump, and at the times it is given to record. In the interaction picture no step is taken where no pulse acts.

:func:`evolve` builds the RK4 step matrices of :data:`CHUNK` steps at once in numpy. Each, like U, is a quaternion
[[p, q], [-conj q, conj p]] carried as its pair (p, q): only the pair product onto U runs step by step, in Python.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .propagators import kick_generators
from .pulses import (Rectangular, Representation, Schedule, coupling_samples, pulse_center, pulse_support,
                     rotation_rate, value_at)
from .su2 import ID2, SIGMA_Z, exp_minus_i_generator, unitarity_defect
from .units import rabi_period

MAX_STEPS = 10**9
# Cap on the rows one evolve may record: t0, every record_every-th step and each cut. Each
# takes 72 bytes (a float64 time and a complex 2x2 U, preallocated): 10^6 is ~72 MB.
MAX_RECORDS = 10**6
CHUNK = 1024  # steps whose RK4 step matrices are built at once: a workspace of under 1 MB
MAX_DEFECT = 1e-6  # largest unitarity defect propagate returns; beyond it its own step has failed
# Largest h * Vmax of the default step, where Vmax, the sum of the smooth pulses' peak amplitudes,
# bounds |V(t)|. Presets, demos and benchmark pulses reach 0.0245 at most, so it binds only beyond them.
STEP_PER_FIELD = 0.05


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    representation: Representation = Representation.SCHRODINGER
    record_every: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"step size must be positive and finite, got {self.dt!r}")
        if type(self.record_every) is not int or self.record_every < 1:  # bool is an int subclass
            raise ValueError("record_every must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """Recorded propagators: ``propagators[i]`` is U(times[i], t0), shape (n, 2, 2)."""

    times: np.ndarray
    propagators: np.ndarray

    def probabilities(self) -> np.ndarray:
        """Columns (P1, P2) along the trajectory, starting in state 1."""
        return np.abs(self.propagators[:, :, 0]) ** 2


def _resolving_step(s: Schedule) -> float:
    """min(shortest pulse width / 40, free period / 400, STEP_PER_FIELD / Vmax); inf when the schedule has no scale."""
    smooth = s.smooth_pulses()
    tau_min = min((p.tau for p in smooth), default=math.inf)
    v_max = sum(abs(float(value_at(p, pulse_center(p)))) for p in smooth)
    return min(tau_min / 40.0, rabi_period(s.delta_e) / 400.0, STEP_PER_FIELD / v_max if v_max else math.inf)


def default_step(s: Schedule) -> float:
    """Step resolving the pulse (40 samples), the free period (400) and the field strength."""
    dt = _resolving_step(s)
    return dt if math.isfinite(dt) else s.duration() / 400.0


def evolve(s: Schedule, cfg: IntegratorConfig, cuts=()) -> Trajectory:
    """RK4 propagator U(t, t0) from t0 to tf, recorded every ``cfg.record_every``-th RK4 step and at each cut.

    The window is cut at the times of :meth:`Schedule.kicks`, at the rectangular-pulse edges and at the times
    ``cuts`` inside it; cuts outside (t0, tf) are ignored, like kicks outside the window. Each piece takes
    ceil(length / dt) equal steps, in chunks of :data:`CHUNK` whose nodes and midpoints are sampled at once, ends on
    its cut and samples only the pulses whose support overlaps it; in the interaction picture a piece that no
    support overlaps takes none, and U is carried across it unchanged. The kicks at a cut, on any axis, act as
    exp(-i G) with G from :func:`kick_generators` (unrotated in the Schrodinger picture) before U is recorded there.
    Only the steps taken count against the step and record limits.

    Both basis columns advance together as a 2x2 matrix; column j of U is
    the state that starts in level j + 1. U is never renormalized: its
    unitarity defect at tf is the standard integration diagnostic.
    """
    threshold = 2.0 * _resolving_step(s)
    if cfg.dt > threshold:
        warnings.warn(f"dt = {cfg.dt:g} does not resolve the fastest scale (warning threshold {threshold:g})",
                      stacklevel=2)

    schrodinger = cfg.representation is Representation.SCHRODINGER
    kicks = kick_generators(rotation_rate(s.delta_e, cfg.representation), s.kicks())
    edges = {t for p in s.pulses if isinstance(p, Rectangular) for t in pulse_support(p)}
    bounds = [s.t0, *sorted(t for t in edges | kicks.keys() | {*cuts} if s.t0 < t < s.tf), s.tf]
    supports = [(p, *pulse_support(p)) for p in s.smooth_pulses()]
    pieces = []  # (start, end, steps taken, step, the smooth pulses overlapping it); counts past the floats are inf
    for a, b in zip(bounds, bounds[1:]):
        active, q = [p for p, lo, hi in supports if lo < b and hi > a], (b - a) / cfg.dt
        n = max(1, math.ceil(q) if q < math.inf else q)
        pieces.append((a, b, n if schrodinger or active else 0, (b - a) / n, active))  # no step where U is constant
    n_steps = sum(n for _, _, n, _, _ in pieces)
    n_steps = n_steps if n_steps <= sys.float_info.max else math.inf
    if n_steps > MAX_STEPS:
        raise ValueError(f"{n_steps:.4g} steps exceed the {MAX_STEPS} step limit")
    every = cfg.record_every
    rows = 1 + n_steps // every + len(pieces)  # t0, each every-th step, each cut
    if rows > MAX_RECORDS:
        raise ValueError(f"{rows:.4g} recorded states exceed the {MAX_RECORDS} record limit")

    h0 = -0.5 * s.delta_e * SIGMA_Z if schrodinger else 0.0
    kick_exp = dict(zip(kicks, exp_minus_i_generator(np.reshape(list(kicks.values()), (-1, 2, 2)))))
    u = kick_exp.get(s.t0, ID2)
    times, propagators = np.empty(rows), np.empty((rows, 2, 2), dtype=complex)
    times[0], propagators[0] = s.t0, u
    recorded = done = 0
    for a, b, n, h, active in pieces:
        for c0 in range(0, n, CHUNK):
            c1 = min(n, c0 + CHUNK)
            first = c0 + every - (done + c0) % every
            ks = np.arange(first, min(c1 + 1, n), every)  # the steps recorded here; the cut comes after
            slot = slice(recorded + 1, recorded + 1 + ks.size)
            times[slot] = a + ks * h
            nodes = np.append(a + np.arange(c0, c1) * h, b if c1 == n else a + c1 * h)
            walk = _walk(s.delta_e, active, nodes, h, cfg.representation, h0, u)
            u = _matrices(walk[-1:])[0]
            propagators[slot] = _matrices(walk[first - c0 - 1 :: every][: ks.size])
            recorded += ks.size
        if b in kicks:
            u = kick_exp[b] @ u
        recorded += 1
        times[recorded], propagators[recorded] = b, u
        done += n
    if not np.all(np.isfinite(u)):
        raise FloatingPointError(f"RK4 propagator is not finite at h = {h:g}; the step is unstable")
    return Trajectory(times[: recorded + 1], propagators[: recorded + 1])


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # quaternion products, each quaternion as its pair (x0, x1)
    return np.stack((x[0] * y[0] - x[1] * y[1].conj(), x[0] * y[1] + x[1] * y[0].conj()))


def _matrices(pairs: list) -> np.ndarray:  # the quaternions [[a, b], [-conj b, conj a]] of pairs (a, b), as (n, 2, 2)
    a, b = np.array(pairs, dtype=complex).reshape(-1, 2).T
    return np.stack((a, b, -b.conj(), a.conj()), axis=-1).reshape(-1, 2, 2)


def _walk(delta_e: float, pulses: list, nodes: np.ndarray, h: float, rep: Representation, h0, u) -> list:
    """U after each step between consecutive ``nodes`` from ``u``, as first rows (u00, u01) of Python complex.

    With A, B, C = -iH at t, t + h/2, t + h, all the step matrices R = I + h/6 (A + 4B + C + h(BA + B^2 + CB)
    + h^2/2 (B^2 A + C B^2) + h^3/4 C B^2 A) are built at once, as the RK4 stages from U = I, each kept, like U, as its
    first row (p, q): H is traceless Hermitian and IEEE arithmetic commutes with conj, so row 2 is exactly (-q*, p*).
    """
    m = nodes.size - 1
    e = -1j * (coupling_samples(delta_e, pulses, np.concatenate((nodes, nodes[:-1] + 0.5 * h)), rep) + h0)[:, 0].T
    a, c, mid = e[:, :m], e[:, 1 : m + 1], e[:, m + 1 :]
    k2 = mid + 0.5 * h * _product(mid, a)
    k3 = mid + 0.5 * h * _product(mid, k2)
    r = (h / 6.0) * (a + 2.0 * (k2 + k3) + c + h * _product(c, k3))
    r[0] += 1.0
    (x, y), walk = u[0].tolist(), []
    for p, q in zip(*r.tolist()):
        x, y = p * x - q * y.conjugate(), p * y + q * x.conjugate()
        walk.append((x, y))
    return walk


def propagate(s: Schedule, times=None) -> np.ndarray:
    """Time-ordered rotating-frame U(t, t0) at each of :meth:`Schedule.observation_times`, in the shape of ``times``.

    One interaction-picture :func:`evolve` at :func:`default_step`, cut at each time; then :func:`check_unitary`
    on its final U. More times than :data:`MAX_RECORDS` are refused before the run.
    """
    flat = s.observation_times(times).tolist()
    if len(flat) > MAX_RECORDS:  # each time is a cut and a recorded row of the one evolve
        raise ValueError(f"{len(flat)} observation times exceed the {MAX_RECORDS} record limit")
    run = evolve(s, IntegratorConfig(default_step(s), Representation.INTERACTION, 10**6), flat)
    check_unitary(run.propagators[-1])
    row = {t: i for i, t in enumerate(run.times.tolist())}  # by time: a long run records more rows than the cuts
    return run.propagators.take([row[t] for t in flat], axis=0).reshape(np.shape(times) + (2, 2))


def check_unitary(u: np.ndarray) -> np.ndarray:
    """``u``, unless its unitarity defect exceeds :data:`MAX_DEFECT`: then the step that made it has failed."""
    defect = unitarity_defect(u)
    if not defect <= MAX_DEFECT:  # a NaN defect, from entries too large to square, fails too
        raise FloatingPointError(f"unitarity defect {defect:.2g} exceeds {MAX_DEFECT:g}: the step is too coarse")
    return u


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
