"""Unit handling and the hydrogen 2s-2p preset.

Everything inside the library is dimensionless with hbar = 1; only the
products delta_e * t matter. Laboratory inputs quoted in eV and picoseconds
convert through hbar = 6.58211957e-4 eV ps, i.e.
delta_e_internal = delta_e_eV / hbar, after which times stay in ps.

The preset uses the 2s-2p splitting of atomic hydrogen,
delta_e = 4.37e-6 eV. Converting gives a free oscillation period
2 pi / delta_e of about 946 ps; the same interval is sometimes quoted
rounded to 972 ps, but here the period is always derived from delta_e.
"""

from __future__ import annotations

import math

from .pulses import Gaussian, Schedule
from .su2 import PauliAxis

HBAR_EV_PS = 6.58211957e-4

DELTA_E_2S2P_EV = 4.37e-6
T_K_2S2P_PS = 150.0


def delta_e_from_ev(delta_e_ev: float) -> float:
    """Convert a splitting in eV to internal (inverse-ps) units."""
    return delta_e_ev / HBAR_EV_PS


def rabi_period(delta_e: float) -> float:
    """Free oscillation period 2 pi / |delta_e| (inf for degenerate levels)."""
    if delta_e == 0.0:
        return math.inf
    return 2.0 * math.pi / abs(delta_e)


def preset_2s2p(tau: float, alpha: float = math.pi / 2, tf: float | None = None) -> Schedule:
    """Gaussian-pulse schedule for the hydrogen 2s-2p pair.

    One x-coupled Gaussian of area ``alpha`` (default pi/2, a full
    population-transfer kick in the narrow limit) centered at t_k = 150 ps,
    on the window [0, tf]; ``tf`` defaults to t_k + 3 Rabi periods. Times are
    in ps; the splitting is the converted 4.37e-6 eV.
    """
    delta_e = delta_e_from_ev(DELTA_E_2S2P_EV)
    if tf is None:
        tf = T_K_2S2P_PS + 3.0 * rabi_period(delta_e)
    return Schedule(delta_e, (Gaussian(alpha, T_K_2S2P_PS, tau, PauliAxis.X),), 0.0, tf)
