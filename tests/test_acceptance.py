"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are fixed here, not tuned at runtime.
"""

import math
import warnings

import numpy as np

from kickedqubit.cli import main
from kickedqubit.diagnostics import (
    default_surface_grids,
    kick_limit_scan,
    observation_time_scan,
    ordering_difference_surface,
)
from kickedqubit.ode import (
    IntegratorConfig,
    convergence_check,
    default_step,
    evolve,
)
from kickedqubit.perturbation import dyson_second_order
from kickedqubit.propagators import (
    kick_sequence,
    nto_opposite_pair,
    nto_propagator,
    opposite_kick_pair,
    ordered_pair_matrix,
    single_kick,
)
from kickedqubit.pulses import DeltaKick, Gaussian, Representation, Schedule
from kickedqubit.su2 import dagger, unitarity_defect
from kickedqubit.units import preset_2s2p, rabi_period


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_closed_form_transfer_probabilities():
    rng = np.random.default_rng(20240601)
    ok = True
    for _ in range(100):
        delta_e = rng.uniform(0.05, 4.0)
        alpha = rng.uniform(-math.pi, math.pi)
        t1 = rng.uniform(-3.0, 3.0)
        t2 = t1 + rng.uniform(0.0, 6.0)
        half = 0.5 * delta_e * (t2 - t1)
        p2 = abs(opposite_kick_pair(delta_e, alpha, t1, t2)[1, 0]) ** 2
        p2_nto = abs(nto_opposite_pair(delta_e, alpha, t1, t2)[1, 0]) ** 2
        ok &= abs(p2 - (math.sin(2 * alpha) * math.sin(half)) ** 2) <= 1e-12
        ok &= abs(p2_nto - math.sin(2 * alpha * math.sin(half)) ** 2) <= 1e-12
    verdict(1, "pair |U21|^2 matches both closed forms on 100 random points", ok)


def test_criterion_2_difference_surface_structure():
    eps_grid, phi_grid = default_surface_grids()
    pts = ordering_difference_surface(eps_grid, phi_grid)
    axes_zero = all(
        p.difference == 0.0 for p in pts if p.epsilon == 0.0 or p.phi == 0.0
    )
    small_corner = all(
        p.difference <= 0.0
        for p in pts
        if 0.0 < p.epsilon <= 0.3 and 0.0 < p.phi <= 0.5
    )
    diffs = [p.difference for p in pts]
    oscillates = (min(diffs) < 0.0) and (max(diffs) > 0.0)
    verdict(
        2,
        "surface vanishes on the axes, is nonpositive in the small corner, "
        "and carries both signs",
        axes_zero and small_corner and oscillates,
    )


def test_criterion_3_kick_convergence_ladder():
    s = preset_2s2p(9.46)
    period = rabi_period(s.delta_e)
    taus = [period / 2**k for k in range(3, 9)]  # 1/8 ... 1/256
    rows = kick_limit_scan(s.delta_e, math.pi / 2, 150.0, taus)
    errors = [abs(r.p2_rk4_ordered - 1.0) for r in rows]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    close = errors[-1] <= 1e-3
    verdict(
        3,
        f"|P2(tau) - 1| decreases over the width ladder (final {errors[-1]:.2e})",
        monotone and close,
    )


def test_criterion_4_nto_representation_dependence():
    s = preset_2s2p(9.46)
    tau, t_k = 9.46, 150.0
    period = rabi_period(s.delta_e)
    grid = np.linspace(t_k + 10 * tau, t_k + 3 * period, 240)
    rows = observation_time_scan(s.delta_e, math.pi / 2, t_k, tau, grid)
    interaction = np.array([r.p2_nto_interaction for r in rows])
    schrod = np.array([r.p2_nto_schrodinger for r in rows])
    constant = interaction.max() - interaction.min() <= 1e-10

    tail_below_half_max = schrod[-1] < 0.5 * schrod.max()
    # "decreasing on the final decade": the signal oscillates inside a
    # decaying envelope, so compare envelope maxima across the two halves of
    # the final decade [T_end / 10, T_end].
    t = np.array([r.tf for r in rows])
    decade = t >= t[-1] / 10.0
    t_dec, s_dec = t[decade], schrod[decade]
    mid = 0.5 * (t_dec[0] + t_dec[-1])
    decreasing = s_dec[t_dec <= mid].max() > s_dec[t_dec > mid].max()
    verdict(
        4,
        "interaction NTO constant to 1e-10; Schrodinger NTO damped below "
        "half its peak and decreasing across the final decade",
        constant and tail_below_half_max and decreasing,
    )


def test_criterion_5_second_order_identity():
    kicks = Schedule(0.9, (DeltaKick(0.3, 1.0), DeltaKick(0.7, 2.2)), 0.0, 3.0)
    smooth = Schedule(0.8, (Gaussian(0.9, 2.0, 0.3),), 0.0, 4.0)
    ok = dyson_second_order(kicks).identity_residual() <= 1e-13
    ok &= dyson_second_order(smooth).identity_residual() <= 1e-8
    for degenerate, tol in (
        (Schedule(0.0, (DeltaKick(0.3, 1.0), DeltaKick(0.7, 2.2)), 0.0, 3.0), 1e-13),
        (Schedule(0.0, (Gaussian(0.9, 2.0, 0.3),), 0.0, 4.0), 1e-8),
    ):
        b = dyson_second_order(degenerate)
        ok &= float(np.max(np.abs(b.commutator_correction))) <= tol
    verdict(5, "ordered - unordered = commutator correction on both paths", ok)


def test_criterion_6_order_swap_and_time_reversal():
    delta_e, alpha, t1, t2 = 1.2, 0.45, 0.6, 2.2
    forward = kick_sequence(delta_e, [DeltaKick(alpha, t1), DeltaKick(-alpha, t2)])
    swapped = kick_sequence(delta_e, [DeltaKick(-alpha, t1), DeltaKick(alpha, t2)])
    a = abs(abs(forward[1, 0]) ** 2 - abs(swapped[1, 0]) ** 2) <= 1e-12

    generic_1 = kick_sequence(delta_e, [DeltaKick(0.3, t1), DeltaKick(0.7, t2)])
    generic_2 = kick_sequence(delta_e, [DeltaKick(0.7, t1), DeltaKick(0.3, t2)])
    b = float(np.max(np.abs(generic_1 - generic_2))) > 1e-6

    # time reversal at the symmetric point (t_plus = 0): negating both
    # relative times maps the pair propagator to its dagger
    d = 1.3
    u = opposite_kick_pair(delta_e, alpha, -d, d)
    u_rev = ordered_pair_matrix(delta_e, alpha, -2.0 * d, -0.0)
    c = float(np.max(np.abs(u_rev - dagger(u)))) <= 1e-12
    verdict(
        6,
        "P2 invariant under +/- swap; generic matrices differ; time "
        "reversal gives the dagger",
        a and b and c,
    )


def test_criterion_7_unitarity_and_norm():
    propagators = [
        single_kick(1.0, DeltaKick(0.7, 2.0)),
        kick_sequence(1.0, [DeltaKick(0.3, 0.5), DeltaKick(0.9, 1.5)]),
        opposite_kick_pair(0.8, 0.6, 0.0, 2.0),
        nto_opposite_pair(0.8, 0.6, 0.0, 2.0),
    ]
    pair_schedule = Schedule(0.8, (DeltaKick(0.6, 0.0), DeltaKick(-0.6, 2.0)), 0.0, 3.0)
    for rep in Representation:
        propagators.append(nto_propagator(pair_schedule, rep))

    # Closed forms are exact up to rounding and held to 1e-10; integrator
    # output carries the truncation error of the scheme itself (~1e-10 at
    # the default step) and is governed by the 1e-8 drift bound.
    unitary = all(unitarity_defect(u) <= 1e-10 for u in propagators)

    s = preset_2s2p(9.46, tf=150.0 + 8 * 9.46)
    drift = math.nan
    rk4_unitary = True
    for rep in Representation:
        cfg = IntegratorConfig(default_step(s), rep, 10**6)
        traj = evolve(s, cfg)
        rk4_unitary &= unitarity_defect(traj.propagators[-1]) <= 1e-8
        if rep is Representation.SCHRODINGER:
            p1, p2 = traj.probabilities()[-1]
            drift = abs(1.0 - (p1 + p2))

    verdict(
        7,
        f"closed-form propagators unitary to 1e-10; RK4 drift {drift:.2e} <= 1e-8",
        unitary and rk4_unitary and drift <= 1e-8,
    )


def test_criterion_8_rk4_order():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = preset_2s2p(59.15, tf=150.0 + 8 * 59.15)
    cfg = IntegratorConfig(default_step(s), Representation.SCHRODINGER, 10**6)
    _, _, ratio = convergence_check(s, cfg)
    verdict(8, f"step-halving ratio {ratio:.1f} within [8, 32]", 8.0 <= ratio <= 32.0)


def test_criterion_9_cli_determinism(tmp_path):
    first = tmp_path / "surface_1.csv"
    second = tmp_path / "surface_2.csv"
    ok = main(["sweep-surface", "-o", str(first)]) == 0
    ok &= main(["sweep-surface", "-o", str(second)]) == 0
    ok &= first.read_bytes() == second.read_bytes()
    verdict(9, "repeated sweep-surface runs are byte-identical", bool(ok))
