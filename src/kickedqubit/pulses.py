"""Pulse shapes, schedules, and time averages of the coupling.

A two-level system with level splitting ``delta_e`` is driven through a
Pauli axis by one or more pulses. Three shapes are supported:

* ``DeltaKick`` -- an idealized instantaneous pulse of integrated strength
  ``alpha`` (radians) at time ``t_k``; it has no pointwise value and is
  always handled analytically.
* ``Gaussian`` -- value ``(alpha / (sqrt(pi) * tau)) * exp(-((t - t_k)/tau)^2)``,
  normalized so its full-time integral is exactly ``alpha``.
* ``Rectangular`` -- value ``alpha / tau`` on ``[t_start, t_start + tau]``.

All quantities are dimensionless with hbar = 1; products ``delta_e * t`` are
the only physical combinations (see :mod:`kickedqubit.units` for eV/ps
conversion). The free Hamiltonian is ``-(delta_e/2) * sigma_z``, so the
rotating-frame coupling along x picks up the phase ``exp(-i delta_e t)`` in
its (1, 2) entry. One rule, :func:`rotated_axis_matrix`, makes every
coupling matrix: samples, kicks and integrals, in either picture. The
integral over any window is closed-form for every shape: a Gaussian's goes
through the Faddeeva function ``faddeeva``, and a z-axis pulse commutes with
H0 and integrates as in the Schrodinger picture. The closed forms take one
upper limit or a whole array of them in one call.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .su2 import SIGMA_Z, PauliAxis

# Gaussian tails beyond this many widths carry < 1e-15 of alpha and are
# outside the pulse's nominal support.
GAUSSIAN_SUPPORT_WIDTHS = 6.0


class Representation(enum.Enum):
    """Picture an evolution is computed in."""

    SCHRODINGER = "schrodinger"
    INTERACTION = "interaction"


def _require_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class DeltaKick:
    """Instantaneous pulse: integrated strength ``alpha`` applied at ``t_k``."""

    alpha: float
    t_k: float
    axis: PauliAxis = PauliAxis.X

    def __post_init__(self):
        _require_finite(alpha=self.alpha, t_k=self.t_k)


@dataclass(frozen=True)
class Gaussian:
    """Gaussian pulse centered at ``t_k`` with width ``tau`` and area ``alpha``."""

    alpha: float
    t_k: float
    tau: float
    axis: PauliAxis = PauliAxis.X

    def __post_init__(self):
        _require_finite(alpha=self.alpha, t_k=self.t_k, tau=self.tau)
        if self.tau <= 0.0:
            raise ValueError(f"Gaussian width tau must be > 0, got {self.tau!r}")


@dataclass(frozen=True)
class Rectangular:
    """Flat pulse of area ``alpha`` on ``[t_start, t_start + tau]``."""

    alpha: float
    t_start: float
    tau: float
    axis: PauliAxis = PauliAxis.X

    def __post_init__(self):
        _require_finite(alpha=self.alpha, t_start=self.t_start, tau=self.tau)
        if self.tau <= 0.0:
            raise ValueError(f"Rectangular duration tau must be > 0, got {self.tau!r}")


Pulse = DeltaKick | Gaussian | Rectangular


def pulse_center(p: Pulse) -> float:
    return p.t_start if isinstance(p, Rectangular) else p.t_k


def pulse_support(p: Pulse) -> tuple[float, float]:
    """Nominal support interval of the pulse (a point for kicks)."""
    if isinstance(p, DeltaKick):
        return (p.t_k, p.t_k)
    if isinstance(p, Gaussian):
        half = GAUSSIAN_SUPPORT_WIDTHS * p.tau
        return (p.t_k - half, p.t_k + half)
    return (p.t_start, p.t_start + p.tau)


def value_at(p: Pulse, t):
    """Field amplitude V(t) at a time or an array of times. Undefined for delta kicks, which raise."""
    if isinstance(p, DeltaKick):
        raise ValueError("pointwise value undefined for delta kicks")
    if isinstance(p, Gaussian):
        return p.alpha / (math.sqrt(math.pi) * p.tau) * np.exp(-(((t - p.t_k) / p.tau) ** 2))
    return np.where((p.t_start <= t) & (t <= p.t_start + p.tau), p.alpha / p.tau, 0.0)


def integrated_strength(p: Pulse, t0: float, t):
    """Integral of V over [t0, t], in closed form for every shape; ``t`` may be an array.

    A kick exactly at an endpoint counts as inside the interval.
    """
    if np.any(t < t0):
        raise ValueError(f"integration endpoint t = {t!r} precedes t0 = {t0!r}")
    if isinstance(p, DeltaKick):
        return p.alpha * ((t0 <= p.t_k) & (p.t_k <= t))
    if isinstance(p, Gaussian):
        erf = math.erf if np.ndim(t) == 0 else _erf
        return 0.5 * p.alpha * (erf((t - p.t_k) / p.tau) - math.erf((t0 - p.t_k) / p.tau))
    return p.alpha / p.tau * np.maximum(0.0, np.minimum(t, p.t_start + p.tau) - max(t0, p.t_start))


_erf = np.vectorize(math.erf, otypes=[float])  # elementwise math.erf, so arrays get its values


@dataclass(frozen=True)
class Schedule:
    """Full problem specification: splitting, pulse list, and time window.

    Pulses are stably sorted by center/start time on construction, so
    simultaneous kicks keep their given order. Pulse support extending
    outside [t0, tf] is flagged with a warning, not rejected: the evolution
    then simply truncates the pulse.
    """

    delta_e: float
    pulses: tuple[Pulse, ...] = field(default_factory=tuple)
    t0: float = 0.0
    tf: float = 1.0

    def __post_init__(self):
        _require_finite(delta_e=self.delta_e, t0=self.t0, tf=self.tf)
        if self.tf <= self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0!r}, {self.tf!r}]")
        object.__setattr__(self, "pulses", tuple(sorted(self.pulses, key=pulse_center)))
        for p in self.pulses:
            lo, hi = pulse_support(p)
            if lo < self.t0 or hi > self.tf:
                warnings.warn(
                    f"pulse support [{lo:g}, {hi:g}] extends outside the "
                    f"schedule window [{self.t0:g}, {self.tf:g}]",
                    stacklevel=2,
                )

    def smooth_pulses(self) -> tuple[Pulse, ...]:
        return tuple(p for p in self.pulses if not isinstance(p, DeltaKick))

    def kicks(self) -> tuple[DeltaKick, ...]:
        """The kicks in the closed window [t0, tf], in time order; the rest act on nothing."""
        return tuple(p for p in self.pulses if isinstance(p, DeltaKick) and self.t0 <= p.t_k <= self.tf)

    def duration(self) -> float:
        return self.tf - self.t0

    def observation_times(self, times=None) -> np.ndarray:
        """``times``, tf when None, as a flat float array: refused unless it ascends strictly inside (t0, tf]."""
        flat = np.asarray(self.tf if times is None else times, dtype=float).ravel()
        if not (flat.size and self.t0 < flat[0] and flat[-1] <= self.tf and (flat[1:] > flat[:-1]).all()):
            raise ValueError(f"times must ascend strictly inside (t0, tf] = ({self.t0!r}, {self.tf!r}]")
        return flat


def rotation_rate(delta_e: float, rep: Representation) -> float:
    """Rotation rate of the x and y axes in a picture: delta_e in the interaction picture, 0 in the Schrodinger one."""
    return delta_e if rep is Representation.INTERACTION else 0.0


def rotated_axis_matrix(delta_e: float, t, axis: PauliAxis, amplitude=1.0) -> np.ndarray:
    """amplitude * exp(i H0 t) sigma_axis exp(-i H0 t) at a time or an array of times: shape (..., 2, 2).

    With H0 = -(delta_e/2) sigma_z this rotates sigma_x, sigma_y in the xy-plane by the angle
    delta_e * t, putting exp(-i delta_e t) in the (1, 2) entry for axis x; sigma_z is unchanged.
    ``delta_e`` is the picture's :func:`rotation_rate`: 0 leaves the axis unrotated. ``amplitude``
    broadcasts against ``t``; on x or y a complex one scales the (1, 2) entry and its conjugate
    the (2, 1) entry, so the matrix stays Hermitian.
    """
    m = np.zeros(np.broadcast(t, amplitude).shape + (2, 2), dtype=complex)
    if axis is PauliAxis.Z:
        m[..., 0, 0] = amplitude
        m[..., 1, 1] = -amplitude
        return m
    phase = np.exp(-1j * delta_e * t) if delta_e else 1.0
    upper = amplitude * (phase if axis is PauliAxis.X else -1j * phase)
    m[..., 0, 1] = upper
    m[..., 1, 0] = np.conj(upper)
    return m


def coupling_samples(delta_e: float, pulses: list[Pulse] | tuple[Pulse, ...], times: np.ndarray, rep: Representation):
    """sum_p V_p(t) sigma_axis at every time of the array ``times``, shape (len(times), 2, 2); kicks raise.

    Each axis is rotated to its time at the picture's :func:`rotation_rate`.
    """
    rate = rotation_rate(delta_e, rep)
    v = np.zeros((len(times), 2, 2), dtype=complex)
    for p in pulses:
        v += rotated_axis_matrix(rate, times, p.axis, value_at(p, times))
    return v


def schrodinger_hamiltonian(s: Schedule, t: float) -> np.ndarray:
    """H(t) = -(delta_e/2) sigma_z + sum_p V_p(t) sigma_axis."""
    return -0.5 * s.delta_e * SIGMA_Z + coupling_samples(s.delta_e, s.pulses, np.array([t]), Representation.SCHRODINGER)[0]


def interaction_potential(s: Schedule, t: float) -> np.ndarray:
    """Rotating-frame coupling: sum_p V_p(t) * rotated sigma_axis at time t."""
    return coupling_samples(s.delta_e, s.pulses, np.array([t]), Representation.INTERACTION)[0]


def _weideman_coefficients(n: int) -> tuple[float, list[float]]:
    """Scale L and the n coefficients, highest power first, of Weideman's w(z)."""
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(0.5 * np.pi * np.arange(1 - m, m) / m)
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    return scale, [float(c) for c in np.fft.fft(np.fft.ifftshift(f)).real[n:0:-1] / (2 * m)]


_W_SCALE, _W_COEFFS = _weideman_coefficients(40)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) for Im z >= 0, to about 2e-14 relative error.

    Weideman's 40-term rational expansion (Weideman 1994, SIAM J. Numer. Anal.
    31:1497), by Horner's rule on a Python complex, or at once on an array.
    """
    if np.any(z.imag < 0.0):
        raise ValueError(f"faddeeva needs Im z >= 0, got {z!r}")
    d = _W_SCALE - 1j * z
    x = (_W_SCALE + 1j * z) / d
    p = 0j
    for c in _W_COEFFS:
        p = p * x + c
    return (2.0 * p / d + _INV_SQRT_PI) / d


def _damped_erf(u, c: float):
    """exp(-c^2) erf(u + ic) for a float or array u, through w in the upper half-plane so every term stays bounded."""
    sign = 2.0 * (u >= 0.0) - 1.0
    tail = np.exp(-u * u - 2j * c * u) * faddeeva(sign * (1j * u - c))
    return sign * (math.exp(-c * c) - tail)


def pulse_coupling_integral(
    p: Pulse, delta_e: float, lo: float, hi, rep: Representation
) -> np.ndarray:
    """Integral of this pulse's coupling matrix over [lo, hi], in closed form.

    ``hi`` is one upper limit or an array of them; the result has shape
    ``np.shape(hi) + (2, 2)``, and a limit at or before the support gives 0.
    Each branch finds an amount and the time its axis is rotated to, and
    :func:`rotated_axis_matrix` makes the matrix. A kick gives ``alpha`` at
    ``t_k`` when ``t_k`` lies in the closed interval. A smooth pulse gives its
    integrated strength where the picture does not rotate its axis: at rate 0
    or on z. Otherwise a Rectangular pulse on [a, b] gives the sinc form, axis
    at (a + b) / 2, and a Gaussian ``(alpha / 2) [E(u_b) - E(u_a)]``, axis at
    ``t_k``, where u = (t - t_k) / tau and E(u) = exp(-c^2) erf(u + ic), c = delta_e tau / 2.
    """
    rate = rotation_rate(delta_e, rep)
    if isinstance(p, DeltaKick):
        return rotated_axis_matrix(rate, p.t_k, p.axis, p.alpha * ((lo <= p.t_k) & (p.t_k <= hi)))

    a, end = pulse_support(p)
    a = max(a, lo)
    b = np.minimum(np.maximum(hi, a), max(a, end))  # b = a where [lo, hi] misses the support
    if not rate or p.axis is PauliAxis.Z:
        amount, t_axis = integrated_strength(p, a, b), 0.0
    elif isinstance(p, Rectangular):
        w = b - a
        amount, t_axis = p.alpha * (w * np.sinc(rate * w / (2.0 * math.pi)) / p.tau), 0.5 * (a + b)
    else:
        c = 0.5 * rate * p.tau
        amount = 0.5 * p.alpha * (_damped_erf((b - p.t_k) / p.tau, c) - _damped_erf((a - p.t_k) / p.tau, c))
        t_axis = p.t_k
    return rotated_axis_matrix(rate, t_axis, p.axis, amount)


def coupling_integral(s: Schedule, lo: float, hi, rep: Representation) -> np.ndarray:
    """Integral of the full coupling over [lo, hi] (H0 excluded), in closed form; ``hi`` may be an array."""
    terms = (pulse_coupling_integral(p, s.delta_e, lo, hi, rep) for p in s.pulses)
    return sum(terms, np.zeros(np.shape(hi) + (2, 2), dtype=complex))

