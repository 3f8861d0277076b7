"""Time-domain dynamics of pulsed two-level systems.

Exact time-ordered propagators for kicked qubits, the no-time-ordering
(NTO) limit built from the time-averaged coupling, fixed-step RK4
integration of finite-width pulses in either picture, and the second-order
machinery that isolates the ordering effect as an ordered commutator
integral.
"""

from .diagnostics import (
    MapRegime,
    SurfacePoint,
    classify_regime,
    default_surface_grids,
    kick_limit_scan,
    observation_time_scan,
    ordering_difference_surface,
    p2_nto,
    p2_ordered,
)
from .ode import IntegratorConfig, Trajectory, convergence_check, default_step, evolve
from .perturbation import (
    TOL_QUAD2,
    SecondOrderBreakdown,
    dyson_second_order,
    theta_split_weights,
)
from .propagators import (
    change_representation,
    free_propagator,
    kick_sequence,
    nto_opposite_pair,
    nto_propagator,
    opposite_kick_pair,
    single_kick,
)
from .pulses import (
    DeltaKick,
    Gaussian,
    Rectangular,
    Representation,
    Schedule,
    integrated_strength,
    interaction_potential,
    schrodinger_hamiltonian,
    value_at,
)
from .su2 import (
    TOL_NORM,
    PauliAxis,
    dagger,
    exp_i_phi_sigma_u,
    pauli,
    probabilities,
    unitarity_defect,
)
from .units import HBAR_EV_PS, delta_e_from_ev, preset_2s2p, rabi_period

__version__ = "0.1.0"
