import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kickedqubit.ode import IntegratorConfig, evolve
from kickedqubit.propagators import (
    change_representation,
    free_propagator,
    kick_sequence,
    nto_exponential,
    nto_opposite_pair,
    nto_pair_matrix,
    nto_propagator,
    opposite_kick_pair,
    ordered_pair_matrix,
    single_kick,
)
from kickedqubit.pulses import DeltaKick, Gaussian, Rectangular, Representation, Schedule, coupling_integral, rotated_axis_matrix
from kickedqubit.su2 import ID2, PauliAxis, dagger, exp_i_phi_sigma_u, unitarity_defect


def test_zero_strength_kick_is_identity():
    np.testing.assert_allclose(single_kick(1.3, DeltaKick(0.0, 2.0)), ID2, atol=1e-15)


def test_half_pi_kick_transfers_all_population():
    u = single_kick(0.8, DeltaKick(math.pi / 2, 1.0))
    assert abs(u[0, 0]) < 1e-15 and abs(u[1, 1]) < 1e-15
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_single_kick_entries():
    delta_e, alpha, t_k = 1.0, 0.4, 3.0
    u = single_kick(delta_e, DeltaKick(alpha, t_k))
    assert u[0, 0] == pytest.approx(math.cos(alpha))
    assert u[0, 1] == pytest.approx(-1j * np.exp(-1j * delta_e * t_k) * math.sin(alpha))
    assert u[1, 0] == pytest.approx(-1j * np.exp(1j * delta_e * t_k) * math.sin(alpha))


def test_single_kick_matches_exponential_oracle():
    # The kick generator is alpha * (cos(th) sx + sin(th) sy); exponentiate it
    # through the SU(2) identity as an independent route.
    delta_e, alpha, t_k = 1.0, 0.4, 3.0
    theta = delta_e * t_k
    u_axis = (math.cos(theta), math.sin(theta), 0.0)
    oracle = exp_i_phi_sigma_u(-alpha, u_axis)
    np.testing.assert_allclose(single_kick(delta_e, DeltaKick(alpha, t_k)), oracle, atol=1e-13)


@pytest.mark.parametrize("delta_e", [0.0, 1.0, 2.7])
def test_z_kick_is_a_phase_at_any_time(delta_e):
    # sigma_z commutes with H0, so the kick is exp(-i alpha sigma_z) in every frame and at every time.
    phase = np.diag([np.exp(-0.3j), np.exp(0.3j)])
    np.testing.assert_allclose(single_kick(delta_e, DeltaKick(0.3, 1.7, PauliAxis.Z)), phase, atol=1e-15)
    x_kick = DeltaKick(0.2, -1.0)
    u = kick_sequence(delta_e, [x_kick, DeltaKick(0.3, 2.5, PauliAxis.Z)])
    np.testing.assert_allclose(u, phase @ single_kick(delta_e, x_kick), atol=1e-15)


def test_empty_sequence_is_identity():
    np.testing.assert_array_equal(kick_sequence(1.0, []), ID2)


def test_unsorted_sequence_rejected():
    with pytest.raises(ValueError, match="sorted"):
        kick_sequence(1.0, [DeltaKick(0.1, 2.0), DeltaKick(0.1, 1.0)])


def test_coincident_kicks_merge_strengths():
    merged = kick_sequence(0.9, [DeltaKick(0.3, 1.5), DeltaKick(0.5, 1.5)])
    np.testing.assert_allclose(merged, single_kick(0.9, DeltaKick(0.8, 1.5)), atol=1e-14)


def test_sequence_collapses_in_coincidence_limit():
    # As t2 -> t1 the two-kick product approaches a single kick with the
    # summed strength.
    delta_e, a1, a2, t1 = 0.7, 0.3, 0.5, 1.0
    target = single_kick(delta_e, DeltaKick(a1 + a2, t1))
    for gap, tol in [(1e-3, 1e-3), (1e-6, 1e-6)]:
        u = kick_sequence(delta_e, [DeltaKick(a1, t1), DeltaKick(a2, t1 + gap)])
        assert np.max(np.abs(u - target)) < tol


def test_two_half_pi_kicks_return_population():
    # Composition oracle: with dE * t_minus = pi, two pi/2 kicks bring the
    # system back to the first level.
    delta_e = 1.0
    u = kick_sequence(delta_e, [DeltaKick(math.pi / 2, 1.0), DeltaKick(math.pi / 2, 1.0 + math.pi)])
    assert abs(u[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-13)


def test_opposite_pair_matches_composition():
    delta_e, alpha, t1, t2 = 1.1, 0.35, 0.7, 2.9
    pair = opposite_kick_pair(delta_e, alpha, t1, t2)
    seq = kick_sequence(delta_e, [DeltaKick(alpha, t1), DeltaKick(-alpha, t2)])
    np.testing.assert_allclose(pair, seq, atol=1e-12)


def test_opposite_pair_trivial_cases():
    np.testing.assert_allclose(opposite_kick_pair(1.0, 0.4, 2.0, 2.0), ID2, atol=1e-15)
    np.testing.assert_allclose(opposite_kick_pair(0.0, 0.4, 1.0, 3.0), ID2, atol=1e-15)
    with pytest.raises(ValueError):
        opposite_kick_pair(1.0, 0.4, 3.0, 1.0)


def test_opposite_pair_full_transfer_point():
    # alpha = pi/4 and dE t_minus / 2 = pi/2 moves everything: the
    # composition of the two single-kick matrices confirms |U21|^2 = 1.
    delta_e, alpha = 1.0, math.pi / 4
    t1, t2 = 0.0, math.pi
    seq = kick_sequence(delta_e, [DeltaKick(alpha, t1), DeltaKick(-alpha, t2)])
    assert abs(seq[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-13)
    pair = opposite_kick_pair(delta_e, alpha, t1, t2)
    assert abs(pair[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-13)


def test_nto_pair_trivial_cases():
    np.testing.assert_allclose(nto_opposite_pair(1.0, 0.4, 2.0, 2.0), ID2, atol=1e-15)
    with pytest.raises(ValueError):
        nto_opposite_pair(1.0, 0.4, 3.0, 1.0)


def test_nto_pair_full_transfer_point():
    # 2 alpha sin(dE t_minus / 2) = pi/2 gives P2 = 1; cross-check against
    # the quadrature path on the same schedule.
    delta_e, alpha = 1.0, math.pi / 4
    t1, t2 = 0.0, math.pi
    closed = nto_opposite_pair(delta_e, alpha, t1, t2)
    assert abs(closed[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-13)
    s = Schedule(delta_e, (DeltaKick(alpha, t1), DeltaKick(-alpha, t2)), 0.0, 4.0)
    np.testing.assert_allclose(closed, nto_propagator(s, Representation.INTERACTION), atol=1e-12)


def test_nto_pair_agrees_with_quadrature_path_generically():
    delta_e, alpha, t1, t2 = 0.8, 0.37, 0.5, 2.75
    s = Schedule(delta_e, (DeltaKick(alpha, t1), DeltaKick(-alpha, t2)), 0.0, 3.0)
    np.testing.assert_allclose(
        nto_opposite_pair(delta_e, alpha, t1, t2),
        nto_propagator(s, Representation.INTERACTION),
        atol=1e-12,
    )


def test_nto_diagonal_and_offdiagonal_structure():
    delta_e, alpha, t1, t2 = 0.9, 0.4, 1.0, 2.4
    chi = 2.0 * alpha * math.sin(0.5 * delta_e * (t2 - t1))
    u = nto_opposite_pair(delta_e, alpha, t1, t2)
    assert u[0, 0] == pytest.approx(math.cos(chi), abs=1e-14)
    assert abs(u[0, 1]) == pytest.approx(abs(math.sin(chi)), abs=1e-14)


def test_ordering_reduces_small_parameter_transfer():
    # Small strengths and separations: the time-ordered pair transfers no
    # more population than the NTO limit.
    delta_e = 0.3
    for alpha in (0.05, 0.2):
        for t2 in (0.5, 1.5):
            p2 = abs(opposite_kick_pair(delta_e, alpha, 0.0, t2)[1, 0]) ** 2
            p2_nto = abs(nto_opposite_pair(delta_e, alpha, 0.0, t2)[1, 0]) ** 2
            assert p2 <= p2_nto + 1e-15


def test_nto_propagator_trivial_schedules():
    s = Schedule(1.4, (), 0.0, 3.0)
    np.testing.assert_allclose(nto_propagator(s, Representation.INTERACTION), ID2, atol=1e-15)
    np.testing.assert_allclose(
        nto_propagator(s, Representation.SCHRODINGER), free_propagator(1.4, 3.0), atol=1e-14
    )


def test_su2_form_of_pair_matrices():
    # Diagonals are conjugates, off-diagonals negatives of conjugates.
    for u in (
        opposite_kick_pair(0.8, 0.5, 0.3, 2.1),
        nto_opposite_pair(0.8, 0.5, 0.3, 2.1),
    ):
        assert u[1, 1] == pytest.approx(np.conj(u[0, 0]), abs=1e-12)
        assert u[1, 0] == pytest.approx(-np.conj(u[0, 1]), abs=1e-12)


def test_order_swap_leaves_transfer_probability():
    delta_e, alpha, t1, t2 = 1.2, 0.45, 0.6, 2.2
    a = kick_sequence(delta_e, [DeltaKick(alpha, t1), DeltaKick(-alpha, t2)])
    b = kick_sequence(delta_e, [DeltaKick(-alpha, t1), DeltaKick(alpha, t2)])
    assert abs(a[1, 0]) ** 2 == pytest.approx(abs(b[1, 0]) ** 2, abs=1e-12)


def test_order_swap_changes_generic_matrices():
    delta_e, t1, t2 = 1.2, 0.6, 2.2
    a = kick_sequence(delta_e, [DeltaKick(0.3, t1), DeltaKick(0.7, t2)])
    b = kick_sequence(delta_e, [DeltaKick(0.7, t1), DeltaKick(0.3, t2)])
    assert np.max(np.abs(a - b)) > 1e-6


def test_time_reversal_maps_symmetric_pair_to_dagger():
    # Symmetric kicks about the origin (t_plus = 0): negating both relative
    # times turns the closed form into its own dagger.
    delta_e, alpha, d = 0.9, 0.4, 1.3
    u = opposite_kick_pair(delta_e, alpha, -d, d)
    reversed_u = ordered_pair_matrix(delta_e, alpha, -2.0 * d, 0.0)
    np.testing.assert_allclose(reversed_u, dagger(u), atol=1e-12)
    u0 = nto_pair_matrix(delta_e, alpha, 2.0 * d, 0.0)
    np.testing.assert_allclose(
        nto_pair_matrix(delta_e, alpha, -2.0 * d, 0.0), dagger(u0), atol=1e-12
    )


def test_time_reversal_generic_offset_magnitudes():
    # With t_plus away from zero the diagonals still conjugate and every
    # entry keeps its magnitude; the residual off-diagonal phase is the
    # time-origin (sum-time) rotation.
    delta_e, alpha, t_minus, t_plus = 0.9, 0.4, 2.6, 3.4
    u = ordered_pair_matrix(delta_e, alpha, t_minus, t_plus)
    r = ordered_pair_matrix(delta_e, alpha, -t_minus, -t_plus)
    assert r[0, 0] == pytest.approx(np.conj(u[0, 0]), abs=1e-12)
    np.testing.assert_allclose(np.abs(r), np.abs(dagger(u)), atol=1e-12)


def test_ordering_reversal_changes_only_diagonal_phases():
    # t_minus -> -t_minus with alpha -> -alpha: NTO matrix invariant, exact
    # matrix keeps off-diagonals and conjugates the diagonal.
    delta_e, alpha, t_minus, t_plus = 1.1, 0.52, 1.9, 2.7
    u = ordered_pair_matrix(delta_e, alpha, t_minus, t_plus)
    r = ordered_pair_matrix(delta_e, -alpha, -t_minus, t_plus)
    assert r[0, 1] == pytest.approx(u[0, 1], abs=1e-12)
    assert r[1, 0] == pytest.approx(u[1, 0], abs=1e-12)
    assert r[0, 0] == pytest.approx(np.conj(u[0, 0]), abs=1e-12)
    n = nto_pair_matrix(delta_e, alpha, t_minus, t_plus)
    rn = nto_pair_matrix(delta_e, -alpha, -t_minus, t_plus)
    np.testing.assert_allclose(rn, n, atol=1e-12)


def test_transfer_probability_closed_forms():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        delta_e = rng.uniform(0.1, 3.0)
        alpha = rng.uniform(-math.pi, math.pi)
        t1 = rng.uniform(-2.0, 2.0)
        t2 = t1 + rng.uniform(0.0, 4.0)
        expected = (math.sin(2 * alpha) * math.sin(0.5 * delta_e * (t2 - t1))) ** 2
        got = abs(opposite_kick_pair(delta_e, alpha, t1, t2)[1, 0]) ** 2
        assert got == pytest.approx(expected, abs=1e-12)
        expected0 = math.sin(2 * alpha * math.sin(0.5 * delta_e * (t2 - t1))) ** 2
        got0 = abs(nto_opposite_pair(delta_e, alpha, t1, t2)[1, 0]) ** 2
        assert got0 == pytest.approx(expected0, abs=1e-12)


@given(
    delta_e=st.floats(0.0, 4.0),
    alpha=st.floats(-3.0, 3.0),
    t1=st.floats(-3.0, 3.0),
    gap=st.floats(0.0, 5.0),
)
def test_pair_propagators_stay_unitary(delta_e, alpha, t1, gap):
    assert unitarity_defect(opposite_kick_pair(delta_e, alpha, t1, t1 + gap)) < 1e-12
    assert unitarity_defect(nto_opposite_pair(delta_e, alpha, t1, t1 + gap)) < 1e-12


def test_change_representation_degenerate_is_identity_map():
    u = single_kick(0.0, DeltaKick(0.3, 1.0))
    np.testing.assert_allclose(
        change_representation(u, 0.0, 2.0, 0.0, Representation.SCHRODINGER), u, atol=1e-15
    )


def test_change_representation_of_identity():
    got = change_representation(ID2, 1.5, 2.0, 0.0, Representation.SCHRODINGER)
    np.testing.assert_allclose(got, free_propagator(1.5, 2.0), atol=1e-14)


def test_change_representation_involutive():
    u = opposite_kick_pair(1.2, 0.4, 0.5, 1.5)
    there = change_representation(u, 1.2, 3.0, 0.5, Representation.SCHRODINGER)
    back = change_representation(there, 1.2, 3.0, 0.5, Representation.INTERACTION)
    np.testing.assert_allclose(back, u, atol=1e-13)


def test_converted_kick_matches_schrodinger_rk4():
    # RK4 oracle: a narrow Gaussian in the Schrodinger picture approaches the
    # analytic kick propagator converted out of the rotating frame,
    # first order in the width (the finite pulse shifts phases by ~dE tau).
    delta_e, alpha, t_k = 1.0, 0.8, 3.0
    deviations = []
    for tau in (0.02, 0.01):
        s = Schedule(delta_e, (Gaussian(alpha, t_k, tau),), 0.0, 4.0)
        cfg = IntegratorConfig(tau / 50, Representation.SCHRODINGER, 10**6)
        traj = evolve(s, cfg)
        analytic = change_representation(
            single_kick(delta_e, DeltaKick(alpha, t_k)),
            delta_e,
            4.0,
            0.0,
            Representation.SCHRODINGER,
        )
        deviations.append(np.max(np.abs(traj.propagators[-1] - analytic)))
    assert deviations[0] < 6.0 * delta_e * 0.02
    assert deviations[1] == pytest.approx(0.5 * deviations[0], rel=0.1)


def test_kick_generator_matches_rotated_axis():
    delta_e, t_k = 1.1, 0.9
    r = rotated_axis_matrix(delta_e, t_k, PauliAxis.Y)
    u = single_kick(delta_e, DeltaKick(0.5, t_k, PauliAxis.Y))
    np.testing.assert_allclose(u, math.cos(0.5) * ID2 - 1j * math.sin(0.5) * r, atol=1e-14)


@pytest.mark.parametrize("rep", list(Representation), ids=lambda rep: rep.value)
def test_stacked_nto_exponential_is_one_call_per_time(rep):
    # Windows ending inside and beyond the supports, and on a kick: the stack gives each window bit for bit.
    s = Schedule(1.3, (Gaussian(0.9, 2.0, 0.3), DeltaKick(0.4, 3.0, PauliAxis.Y), Rectangular(0.6, 3.5, 1.0)), 0.0, 9.0)
    times = np.array([0.5, 2.2, 3.0, 4.0, 5.5, 9.0])
    k = coupling_integral(s, s.t0, times, rep)
    stacked = nto_exponential(k, s.delta_e, times - s.t0, rep)
    assert stacked.shape == (6, 2, 2)
    for t, kt, u in zip(times.tolist(), k, stacked):
        assert np.array_equal(u, nto_exponential(kt, s.delta_e, t - s.t0, rep))
    np.testing.assert_allclose(stacked[-1], nto_propagator(s, rep), rtol=0, atol=1e-15)
