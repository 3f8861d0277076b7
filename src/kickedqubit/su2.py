"""Complex 2x2 linear algebra and SU(2) identities.

Matrices are plain ``numpy`` arrays of shape ``(2, 2)`` with dtype
``complex128``; states are arrays of shape ``(2,)``. There is no propagator
or Hamiltonian subtype -- the unitarity check is an explicit function that
callers apply where the contract demands it.
"""

from __future__ import annotations

import enum
import math

import numpy as np

# Tolerance for double-precision arithmetic with headroom; every closed form
# in this package is exact, so only rounding accumulates.
TOL_NORM = 1e-10

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class PauliAxis(enum.Enum):
    """Coupling axis of a pulse: one of the three Pauli directions."""

    X = "x"
    Y = "y"
    Z = "z"

    @classmethod
    def from_str(cls, label: str) -> "PauliAxis":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise ValueError(f"unknown Pauli axis {label!r}; expected x, y or z") from None


_PAULI = {PauliAxis.X: SIGMA_X, PauliAxis.Y: SIGMA_Y, PauliAxis.Z: SIGMA_Z}


def pauli(axis: PauliAxis) -> np.ndarray:
    """Return a copy of the standard Pauli matrix for ``axis``."""
    return _PAULI[axis].copy()


def sigma_dot_u(u) -> np.ndarray:
    """sigma . u for a real 3-vector u (no normalization requirement here)."""
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
    return np.array([[uz, ux - 1j * uy], [ux + 1j * uy, -uz]], dtype=complex)


def exp_i_phi_sigma_u(phi: float, u) -> np.ndarray:
    """Evaluate exp(i*phi * sigma.u) = cos(phi) I + i sin(phi) sigma.u.

    ``u`` must be a real unit 3-vector; the identity requires (sigma.u)^2 = I.
    Raises ValueError if ``u`` deviates from unit norm by more than TOL_NORM
    or if any input is not finite.
    """
    phi = float(phi)
    ux, uy, uz = (float(c) for c in u)
    if not all(math.isfinite(v) for v in (phi, ux, uy, uz)):
        raise ValueError("exp_i_phi_sigma_u requires finite phi and u")
    norm = math.sqrt(ux * ux + uy * uy + uz * uz)
    if abs(norm - 1.0) > TOL_NORM:
        raise ValueError(f"u must be a unit vector; got |u| = {norm!r}")
    return math.cos(phi) * ID2 + 1j * math.sin(phi) * sigma_dot_u((ux, uy, uz))


def dagger(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(u.conj(), -1, -2)


def probabilities(state: np.ndarray) -> tuple[float, float]:
    """Occupation probabilities (|a1|^2, |a2|^2) of the two levels."""
    a1, a2 = complex(state[0]), complex(state[1])
    return (a1.real**2 + a1.imag**2, a2.real**2 + a2.imag**2)


def unitarity_defect(u: np.ndarray) -> float:
    """Max-entry deviation of U†U from the identity."""
    return float(np.max(np.abs(dagger(u) @ u - ID2)))


def bloch_components(g: np.ndarray):
    """Decompose a traceless Hermitian matrix, or each of a stack (..., 2, 2), as gx*sx + gy*sy + gz*sz.

    The anti-Hermitian and trace parts (rounding noise of a time average) are
    discarded by symmetrizing first. Each component has the stack's shape.
    """
    h = 0.5 * (g + dagger(g))
    gx = h[..., 1, 0].real
    gy = h[..., 1, 0].imag
    gz = 0.5 * (h[..., 0, 0].real - h[..., 1, 1].real)
    return gx, gy, gz


def exp_minus_i_generator(g: np.ndarray, duration=1.0) -> np.ndarray:
    """exp(-i * g * duration) for traceless Hermitian g, exactly in SU(2); g may be a stack (..., 2, 2).

    Writes g = c * sigma.u and evaluates cos(phi) I + i sin(phi) sigma.u, phi = -c*duration, entry by entry;
    ``duration`` broadcasts against the stack, and c = 0 gives the identity. Every phi must be finite.
    """
    gx, gy, gz = bloch_components(np.asarray(g))
    big = np.maximum(np.maximum(np.abs(gx), np.abs(gy)), np.abs(gz))
    # Scaling by a power of two is exact, so the squares neither underflow nor overflow and c keeps its bits.
    k = np.frexp(big)[1]
    x, y, z = np.ldexp(gx, -k), np.ldexp(gy, -k), np.ldexp(gz, -k)
    r = np.sqrt(x * x + y * y + z * z)  # at least 1/2 unless c = 0, where phi is 0 and r is taken as 1
    phi = -np.ldexp(r, k) * duration
    if not np.isfinite(phi).all():
        raise ValueError("exp_minus_i_generator requires a finite generator and duration")
    s, c, r = np.sin(phi), np.cos(phi), r + (big == 0.0)
    sx, sy, sz = s * (x / r), s * (y / r), s * (z / r)
    # (real, imaginary) parts of the entries 00, 01, 10, 11
    return np.stack((c, sz, sy, sx, -sy, sx, c, -sz), axis=-1).view(complex).reshape(np.shape(phi) + (2, 2))
