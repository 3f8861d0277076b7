import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import piecewise_constant_product, truncated_nto_reference

from kickedqubit.diagnostics import observation_time_scan
from kickedqubit.ode import (
    MAX_DEFECT,
    IntegratorConfig,
    check_unitary,
    default_step,
    convergence_check,
    evolve,
    propagate,
)
from kickedqubit.propagators import change_representation, kick_sequence, nto_exponential, nto_propagator, single_kick
from kickedqubit.pulses import DeltaKick, Gaussian, Rectangular, Representation, Schedule, coupling_integral
from kickedqubit.su2 import ID2, PauliAxis, unitarity_defect
from kickedqubit.units import preset_2s2p, rabi_period


def narrow_pulse_schedule(tau=9.46):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return preset_2s2p(tau, tf=150.0 + 8.0 * tau)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(0.1, Representation.SCHRODINGER, 0)


def test_interaction_picture_constant_without_pulses():
    s = Schedule(2.0, (), 0.0, 5.0)
    cfg = IntegratorConfig(0.01, Representation.INTERACTION, record_every=50)
    initial = np.array([0.6, 0.8j], dtype=complex)
    traj = evolve(s, cfg)
    for u in traj.propagators:
        np.testing.assert_allclose(u @ initial, initial, atol=1e-12)


def test_free_phase_evolution_in_schrodinger_picture():
    delta_e = 2.0
    s = Schedule(delta_e, (), 0.0, 3.0)
    cfg = IntegratorConfig(0.005, Representation.SCHRODINGER, record_every=100)
    traj = evolve(s, cfg)
    for t, u in zip(traj.times, traj.propagators):
        assert u[0, 0] == pytest.approx(np.exp(0.5j * delta_e * t), abs=1e-9)
        assert abs(u[1, 0]) < 1e-12
    assert traj.probabilities()[-1, 0] == pytest.approx(1.0, abs=1e-10)


def test_narrow_gaussian_reaches_kick_limit():
    # Analytic oracle: an area pi/2 kick transfers everything. The residual
    # ordering effect scales as (dE tau)^2, about 2.2e-3 at tau = period/100;
    # at period/256 the pulse is within 1e-3 of the ideal kick.
    s = narrow_pulse_schedule()
    cfg = IntegratorConfig(default_step(s), Representation.SCHRODINGER, 10**6)
    traj = evolve(s, cfg)
    assert abs(traj.probabilities()[-1, 1] - 1.0) < 3e-3

    tau = rabi_period(s.delta_e) / 256.0
    s_narrow = narrow_pulse_schedule(tau)
    cfg = IntegratorConfig(default_step(s_narrow), Representation.SCHRODINGER, 10**6)
    traj = evolve(s_narrow, cfg)
    assert abs(traj.probabilities()[-1, 1] - 1.0) < 1e-3


def test_evolve_records_the_kick_products_at_kick_times():
    # Schedule sorts stably, so the simultaneous kicks keep their given order.
    # The kicks on the window ends act before U is recorded there too.
    kicks = (DeltaKick(0.2, 3.0), DeltaKick(0.1, 1.0), DeltaKick(0.3, 1.0, PauliAxis.Y), DeltaKick(0.4, 0.0),
             DeltaKick(-0.5, 4.0, PauliAxis.Y))
    s = Schedule(0.8, kicks, 0.0, 4.0)
    traj = evolve(s, IntegratorConfig(0.01, Representation.INTERACTION, 10**6))
    np.testing.assert_array_equal(traj.times, [0.0, 1.0, 3.0, 4.0])
    in_order = [kicks[3], kicks[1], kicks[2], kicks[0], kicks[4]]
    expected = [kick_sequence(0.8, in_order[:n]) for n in (1, 3, 4, 5)]
    np.testing.assert_array_equal(traj.propagators, expected)


def test_record_every_must_be_an_int():
    for bad in (2.5, 3.0, True, np.int64(2), "2"):
        with pytest.raises(ValueError, match="record_every must be a positive integer"):
            IntegratorConfig(0.1, Representation.SCHRODINGER, bad)


def test_rk4_step_samples_the_coupling_twice_plus_one(monkeypatch):
    # The 256 steps fit in one chunk: each node is sampled once, its value shared
    # by the steps on either side, plus one sample per step for both midpoint stages.
    from kickedqubit.pulses import coupling_samples

    times = []

    def counting(delta_e, pulses, t, rep):
        times.extend(t)
        return coupling_samples(delta_e, pulses, t, rep)

    monkeypatch.setattr("kickedqubit.ode.coupling_samples", counting)
    s = Schedule(0.5, (Gaussian(0.5, 8.0, 1.25),), 0.0, 16.0)
    evolve(s, IntegratorConfig(0.0625, Representation.INTERACTION))
    assert len(times) == len(set(times)) == 2 * 256 + 1


def test_schrodinger_picture_kick_is_unrotated():
    # A lone kick at t_k in the Schrodinger picture is exp(-i alpha sigma_axis)
    # between free evolutions, which change_representation maps to the rotated kick.
    kick = DeltaKick(0.7, 1.3, PauliAxis.Y)
    s = Schedule(0.9, (kick,), 0.0, 2.0)
    u = evolve(s, IntegratorConfig(default_step(s), Representation.SCHRODINGER, 10**6)).propagators[-1]
    converted = change_representation(u, s.delta_e, s.tf, s.t0, Representation.INTERACTION)
    np.testing.assert_allclose(converted, single_kick(s.delta_e, kick), atol=1e-8)


def test_rectangular_pulse_converges_at_fourth_order():
    # Cuts at the pulse edges keep every RK4 step on a smooth piece.
    s = Schedule(1.0, (Rectangular(-0.5, 1.0, 1.0),), 0.0, 3.0)
    dt = default_step(s)
    _, _, ratio = convergence_check(s, IntegratorConfig(dt, Representation.INTERACTION, 10**6))
    assert 8.0 <= ratio <= 32.0
    coarse, fine = (
        evolve(s, IntegratorConfig(step, Representation.INTERACTION, 10**6)).propagators[-1] for step in (dt, dt / 64)
    )
    assert np.max(np.abs(coarse - fine)) <= 1e-9


def test_step_overflow_guard():
    s = Schedule(1.0, (), 0.0, 1.0)
    with pytest.raises(ValueError, match="step limit"):
        evolve(s, IntegratorConfig(1e-10))


def test_step_count_past_the_floats_is_refused_at_the_limits():
    # (tf - t0) / dt overflows to inf, which math.ceil cannot count: the limits refuse it first.
    s = Schedule(1.0, (), 0.0, 1e308)
    with pytest.raises(ValueError, match="inf steps exceed the 1000000000 step limit"):
        evolve(s, IntegratorConfig(1e-300))
    # In the interaction picture a pulse-free piece takes no RK4 step, but its record rows are counted.
    with pytest.raises(ValueError, match="inf recorded states exceed the 1000000 record limit"):
        evolve(s, IntegratorConfig(1e-300, Representation.INTERACTION, 10**6))
    # Two pieces of 1.7e308 steps each: their exact sum is past the floats, and reads inf too.
    split = Schedule(1e-3, (DeltaKick(0.1, 0.0),), -1.7e308, 1.7e308)
    with pytest.raises(ValueError, match="inf steps exceed the 1000000000 step limit"):
        evolve(split, IntegratorConfig(1.0))
    with pytest.raises(ValueError, match="inf recorded states exceed the 1000000 record limit"):
        evolve(split, IntegratorConfig(1.0, Representation.INTERACTION))


def test_recording_cap_is_checked_before_stepping(monkeypatch):
    # The bound is on the rows evolve allocates: t0, every record_every-th step
    # and each cut. 100 steps take 102 rows at record_every 1 and 12 at 10.
    monkeypatch.setattr("kickedqubit.ode.MAX_RECORDS", 12)
    s = Schedule(1.0, (), 0.0, 1.0)
    with pytest.raises(ValueError, match="102 recorded states"):
        evolve(s, IntegratorConfig(0.01, Representation.INTERACTION))
    assert len(evolve(s, IntegratorConfig(0.01, Representation.INTERACTION, 10)).times) == 11
    # Cuts count too: 98 zero-area kicks cut the window into 99 pieces, so 100 rows
    # however few steps are recorded.
    kicked = Schedule(1.0, tuple(DeltaKick(0.0, (i + 1) / 99) for i in range(98)), 0.0, 1.0)
    with pytest.raises(ValueError, match="100 recorded states"):
        evolve(kicked, IntegratorConfig(0.01, Representation.INTERACTION, 10**6))


def traced_evolve(s, cfg):
    """The trajectory and the tracemalloc peak of one evolve."""
    tracemalloc.start()
    try:
        return evolve(s, cfg), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_recording_peaks_near_the_bytes_of_its_arrays():
    # A float64 time and a complex 2x2 U are 72 bytes a record, written into
    # preallocated arrays; the stepping workspace is the same at both lengths.
    s = Schedule(1.0, (), 0.0, 1.0)
    for rep in Representation:
        (short, low), (long, high) = (traced_evolve(s, IntegratorConfig(dt, rep)) for dt in (5e-4, 5e-5))
        assert (len(short.times), len(long.times)) == (2001, 20001)
        assert (high - low) / (20001 - 2001) <= 100


def test_final_only_run_peaks_at_a_fixed_workspace():
    # Steps are taken in chunks of CHUNK, so the peak does not grow with the step count.
    s = Schedule(1.0, (Gaussian(0.5, 0.5, 0.05),), 0.0, 1.0)
    for dt in (1e-4, 1e-5):
        assert traced_evolve(s, IntegratorConfig(dt, Representation.INTERACTION, 10**6))[1] <= 2e6


def test_warns_when_step_does_not_resolve_pulse():
    s = Schedule(0.0, (Gaussian(0.5, 5.0, 0.1),), 0.0, 10.0)
    with pytest.warns(UserWarning, match="resolve"):
        evolve(s, IntegratorConfig(0.5, Representation.INTERACTION))


def test_norm_drift_at_warning_threshold():
    s = narrow_pulse_schedule()
    tau = s.pulses[0].tau
    threshold = min(tau / 20.0, rabi_period(s.delta_e) / 200.0)
    cfg = IntegratorConfig(threshold, Representation.SCHRODINGER, 10**6)
    p1, p2 = evolve(s, cfg).probabilities()[-1]
    assert abs(1.0 - (p1 + p2)) <= 1e-8


def test_final_propagator_unitary_and_consistent_across_pictures():
    s = narrow_pulse_schedule()
    finals = {}
    for rep in Representation:
        cfg = IntegratorConfig(default_step(s), rep, 10**6)
        finals[rep] = evolve(s, cfg).propagators[-1]
        assert unitarity_defect(finals[rep]) < 1e-8
    converted = change_representation(
        finals[Representation.INTERACTION], s.delta_e, s.tf, s.t0, Representation.SCHRODINGER
    )
    assert np.max(np.abs(converted - finals[Representation.SCHRODINGER])) < 1e-6


def test_kick_limit_monotone_over_width_ladder():
    # The RK4 result approaches the analytic kick prediction monotonically
    # as the width halves.
    delta_e, alpha, t_k = 1.0, 0.9, 3.0
    kick_p2 = abs(single_kick(delta_e, DeltaKick(alpha, t_k))[1, 0]) ** 2
    errors = []
    for tau in (0.4, 0.2, 0.1, 0.05):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            s = Schedule(delta_e, (Gaussian(alpha, t_k, tau),), 0.0, 6.0)
        cfg = IntegratorConfig(default_step(s), Representation.INTERACTION, 10**6)
        errors.append(abs(evolve(s, cfg).probabilities()[-1, 1] - kick_p2))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_ordering_effect_vanishes_with_splitting():
    # Finite dE tau separates the ordered result from the NTO value; the gap
    # collapses as dE -> 0, where the rotating-frame couplings commute.
    from kickedqubit.propagators import nto_propagator

    alpha, t_k, tau = 0.9, 3.0, 0.5
    gaps = []
    for delta_e in (1.0, 0.25, 0.0625):
        s = Schedule(delta_e, (Gaussian(alpha, t_k, tau),), 0.0, 6.0)
        cfg = IntegratorConfig(default_step(s), Representation.INTERACTION, 10**6)
        ordered = evolve(s, cfg).probabilities()[-1, 1]
        nto = abs(nto_propagator(s, Representation.INTERACTION)[1, 0]) ** 2
        gaps.append(abs(ordered - nto))
    assert gaps[0] > 1e-4
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4


def test_trajectory_recording_decimation():
    s = Schedule(1.0, (), 0.0, 1.0)
    cfg = IntegratorConfig(0.01, Representation.INTERACTION, record_every=10)
    traj = evolve(s, cfg)
    assert traj.propagators.shape == (len(traj.times), 2, 2)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)
    assert len(traj.times) == 11


@pytest.mark.parametrize("rep", list(Representation))
@pytest.mark.parametrize(
    "pulses",
    [
        (DeltaKick(0.4, 1.0), DeltaKick(-0.7, 2.5, PauliAxis.Y), DeltaKick(0.3, 2.5, PauliAxis.Z)),
        (Gaussian(0.8, 2.0, 0.4, PauliAxis.Z), Rectangular(0.5, 1.0, 2.0, PauliAxis.Z)),
        (Gaussian(0.9, 2.0, 0.5), Rectangular(0.6, 0.5, 1.5, PauliAxis.Y), DeltaKick(0.2, 3.0)),
    ],
    ids=["kicks", "z-axis", "mixed"],
)
def test_nto_reference_is_the_truncated_schedule_route(pulses, rep):
    # The NTO reference the observation-time scan takes per column: one array coupling integral over
    # every cut, then nto_exponential per time. Cuts on kicks and support ends, and inside every support.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(1.3, pulses, 0.0, 5.0)
    grid = np.array([0.3, 0.5, 1.0, 1.6, 2.0, 2.2, 2.5, 3.0, 3.4, 5.0])
    k = coupling_integral(s, s.t0, grid, rep)
    got = [float(abs(nto_exponential(kt, s.delta_e, tf - s.t0, rep)[1, 0]) ** 2) for tf, kt in zip(grid, k)]
    want = truncated_nto_reference(s, rep, grid)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


@pytest.mark.parametrize("tf", [math.nan, math.inf, -math.inf, -1.0])
def test_nto_reference_refuses_a_bad_observation_time(tf):
    # The observation-time scan, whose NTO reference columns run to every tf, refuses the grid before any work.
    with pytest.raises(ValueError, match="finite|beyond the pulse center"):
        observation_time_scan(1.0, 0.5, 0.0, 1.0, [tf])


def test_convergence_ratio_fourth_order():
    s = narrow_pulse_schedule(tau=59.15)
    cfg = IntegratorConfig(default_step(s), Representation.SCHRODINGER, 10**6)
    p2_dt, p2_half, ratio = convergence_check(s, cfg)
    assert 8.0 <= ratio <= 32.0
    assert p2_dt == pytest.approx(p2_half, abs=1e-5)


def test_convergence_ratio_sentinel_without_pulses():
    s = Schedule(1.0, (), 0.0, 2.0)
    cfg = IntegratorConfig(0.01, Representation.INTERACTION, 10**6)
    _, _, ratio = convergence_check(s, cfg)
    assert math.isnan(ratio)


def test_propagate_all_kick_schedule_is_the_kick_product():
    # Schedule sorts stably, so the simultaneous kicks keep their given order.
    kicks = (DeltaKick(0.2, 3.0), DeltaKick(0.1, 1.0), DeltaKick(0.3, 1.0, PauliAxis.Y))
    s = Schedule(0.8, kicks, 0.0, 4.0)
    expected = kick_sequence(0.8, [kicks[1], kicks[2], kicks[0]])
    np.testing.assert_array_equal(propagate(s), expected)


PROPAGATORS = {
    "propagate": propagate,
    "nto-interaction": lambda s, times: nto_propagator(s, Representation.INTERACTION, times),
    "nto-schrodinger": lambda s, times: nto_propagator(s, Representation.SCHRODINGER, times),
}


@pytest.mark.parametrize("name", PROPAGATORS)
@pytest.mark.parametrize("times", [[], [0.0, 1.0], [-1.0], [1.0, 3.5], [2.0, 1.0], [1.0, 1.0], [math.nan], [1.0, math.nan]],
                         ids=["empty", "at-t0", "before-t0", "past-tf", "descending", "repeated", "nan", "then-nan"])
def test_propagators_refuse_times_outside_the_window_or_out_of_order(name, times):
    s = Schedule(1.0, (DeltaKick(0.3, 1.0), Gaussian(0.4, 2.0, 0.1)), 0.0, 3.0)
    with pytest.raises(ValueError, match=re.escape("times must ascend strictly inside (t0, tf] = (0.0, 3.0]")):
        PROPAGATORS[name](s, times)


@pytest.mark.parametrize("name", PROPAGATORS)
def test_propagators_take_the_shape_of_the_times(name):
    s = Schedule(1.0, (DeltaKick(0.3, 1.0), Gaussian(0.4, 2.0, 0.1)), 0.0, 3.0)
    grid = np.array([0.5, 1.0, 2.0, 3.0])
    rows = PROPAGATORS[name](s, grid)
    assert rows.shape == (4, 2, 2)
    assert PROPAGATORS[name](s, 3.0).shape == PROPAGATORS[name](s, None).shape == (2, 2)
    assert PROPAGATORS[name](s, grid.reshape(2, 2)).shape == (2, 2, 2, 2)
    np.testing.assert_array_equal(PROPAGATORS[name](s, grid.reshape(2, 2)).reshape(4, 2, 2), rows)


def test_propagate_empty_schedule_is_identity():
    np.testing.assert_array_equal(propagate(Schedule(1.3, (), 0.0, 2.0)), ID2)


def test_propagate_narrow_gaussian_approaches_single_kick():
    # Same tolerance as the kick-convergence ladder (criterion 3) at period / 256.
    delta_e = preset_2s2p(9.46).delta_e
    tau = rabi_period(delta_e) / 256
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(delta_e, (Gaussian(math.pi / 2, 150.0, tau),), 0.0, 150.0 + 8.0 * tau)
    kick = single_kick(delta_e, DeltaKick(math.pi / 2, 150.0))
    assert abs(abs(propagate(s)[1, 0]) ** 2 - abs(kick[1, 0]) ** 2) <= 1e-3


def test_propagate_kick_outside_the_window_is_the_identity():
    # Only kicks in [t0, tf] act, as in the NTO time average.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(1.0, (DeltaKick(0.3, 5.0),), 0.0, 1.0)
    np.testing.assert_array_equal(propagate(s), ID2)


def test_propagate_mixed_schedule_is_the_product_of_its_pieces():
    # The kick splits the window; either side is an ordinary smooth run, and
    # the first side is driven by the Gaussian alone.
    smooth = (Gaussian(0.4, 1.5, 0.2), Rectangular(0.3, 2.0, 0.5))
    kick = DeltaKick(0.3, 1.4, PauliAxis.Y)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pieces = [Schedule(1.0, smooth, a, b) for a, b in ((0.0, 1.4), (1.4, 3.0))]
    full = Schedule(1.0, (*smooth, kick), 0.0, 3.0)
    dt = default_step(full)
    before, after = (
        evolve(p, IntegratorConfig(dt, Representation.INTERACTION, 10**6)).propagators[-1] for p in pieces
    )
    expected = after @ single_kick(1.0, kick) @ before
    np.testing.assert_allclose(propagate(full), expected, atol=1e-15)


@pytest.mark.parametrize("rep", list(Representation))
def test_z_kick_evolves_exactly_in_both_pictures(rep):
    # sigma_z commutes with H0: in the interaction picture U ends at the kick's
    # phase diag(e^{-0.4i}, e^{0.4i}), and the Schrodinger U is that times the free propagator.
    s = Schedule(1.0, (DeltaKick(0.4, 1.5, PauliAxis.Z),), 0.0, 4.0)
    u = evolve(s, IntegratorConfig(default_step(s), rep, 10**6)).propagators[-1]
    if rep is Representation.SCHRODINGER:
        u = change_representation(u, s.delta_e, s.tf, s.t0, Representation.INTERACTION)
    np.testing.assert_allclose(u, np.diag([np.exp(-0.4j), np.exp(0.4j)]), atol=1e-10)


@pytest.mark.parametrize("pulse", [Rectangular(1000.0, 1.0, 1.0), Gaussian(2000.0, 5.0, 0.5)], ids=["rect", "gaussian"])
def test_propagate_refuses_a_non_unitary_result(pulse):
    # The default step holds h |V| to 0.05, yet at these strengths the defect passes MAX_DEFECT
    # (4.3e-6 and 3.5e-6); propagate's own step failing is a numeric error.
    s = Schedule(1.0, (pulse,), 0.0, 10.0)
    dt = default_step(s)
    assert unitarity_defect(evolve(s, IntegratorConfig(dt, Representation.INTERACTION, 10**6)).propagators[-1]) > MAX_DEFECT
    with pytest.raises(FloatingPointError, match="unitarity defect"):
        propagate(s)


def test_check_unitary_refuses_a_nan_defect():
    # Entries near 1e200 overflow U^dagger U to nan; a defect that compares false must not pass.
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="unitarity defect nan"):
        check_unitary(np.full((2, 2), 1e200 + 1e200j))


# Largest |propagate - exact| per unit of sum |alpha| over the smooth pulses: 5.2e-8 measured on
# 300 random schedules of the family below, 4.7e-8 on one Rectangular pulse at alpha = 200 and
# 2.2e-8 on the Gaussians at alpha = 60. The bound holds these at about twice that.
ERROR_PER_ALPHA = 1e-7


@st.composite
def piecewise_constant_schedules(draw):
    """1-3 Rectangular pulses and 0-2 kicks on any axis, |alpha| <= 60, on [0, 5]."""
    strength, axes = st.floats(-60.0, 60.0), st.sampled_from(PauliAxis)
    rects = draw(st.lists(st.builds(Rectangular, strength, st.floats(0.0, 3.0), st.floats(0.1, 2.0), axes),
                          min_size=1, max_size=3))
    kicks = draw(st.lists(st.builds(DeltaKick, strength, st.floats(0.0, 5.0), axes), max_size=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # pulses may run past tf = 5
        return Schedule(draw(st.floats(0.0, 3.0)), tuple(rects + kicks), 0.0, 5.0)


@settings(max_examples=60, deadline=None)
@given(piecewise_constant_schedules())
def test_propagate_matches_the_exact_product_of_a_piecewise_constant_schedule(s):
    total = sum(abs(p.alpha) for p in s.smooth_pulses())
    assert np.max(np.abs(propagate(s) - piecewise_constant_product(s))) <= ERROR_PER_ALPHA * total + 1e-12


@pytest.mark.parametrize("alpha", [1.5, 5.0, 20.0, 60.0, 200.0])
def test_propagate_resolves_a_strong_rectangular_pulse(alpha):
    s = Schedule(1.0, (Rectangular(alpha, 1.0, 1.0),), 0.0, 10.0)
    assert np.max(np.abs(propagate(s) - piecewise_constant_product(s))) <= ERROR_PER_ALPHA * alpha


@pytest.mark.parametrize("alpha", [5.0, 20.0, 60.0])
def test_propagate_resolves_a_strong_gaussian_pulse(alpha):
    s = Schedule(1.0, (Gaussian(alpha, 5.0, 0.5),), 0.0, 10.0)
    fine = evolve(s, IntegratorConfig(default_step(s) / 8, Representation.INTERACTION, 10**6)).propagators[-1]
    assert np.max(np.abs(propagate(s) - fine)) <= ERROR_PER_ALPHA * alpha
