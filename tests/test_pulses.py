import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kickedqubit.propagators import single_kick
from kickedqubit.pulses import (
    DeltaKick,
    Gaussian,
    Rectangular,
    Representation,
    Schedule,
    coupling_integral,
    coupling_samples,
    faddeeva,
    integrated_strength,
    interaction_potential,
    pulse_coupling_integral,
    pulse_support,
    rotated_axis_matrix,
    schrodinger_hamiltonian,
    value_at,
)
from kickedqubit.su2 import SIGMA_X, SIGMA_Z, PauliAxis, dagger, exp_minus_i_generator
from oracles import coupling_sum, recursive_simpson


def conjugated_coupling(delta_e, t, axis):
    """Oracle: explicit exp(i H0 t) sigma exp(-i H0 t) with H0 = -(dE/2) sz."""
    series = np.zeros((2, 2), dtype=complex)
    power = np.eye(2, dtype=complex)
    h0 = -0.5 * delta_e * SIGMA_Z
    for n in range(40):
        series = series + power
        power = power @ (1j * t * h0) / (n + 1)
    left = series
    right = dagger(series)
    from kickedqubit.su2 import pauli

    return left @ pauli(axis) @ right


def test_gaussian_peak_value():
    p = Gaussian(alpha=math.sqrt(math.pi), t_k=0.0, tau=1.0)
    assert value_at(p, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_rectangular_step_values():
    p = Rectangular(alpha=2.0, t_start=0.0, tau=4.0)
    assert value_at(p, 1.0) == 0.5
    assert value_at(p, 5.0) == 0.0


def test_kick_has_no_pointwise_value():
    with pytest.raises(ValueError, match="delta kick"):
        value_at(DeltaKick(0.3, 1.0), 1.0)


def test_pulse_validation():
    with pytest.raises(ValueError):
        Gaussian(1.0, 0.0, tau=0.0)
    with pytest.raises(ValueError):
        Rectangular(1.0, 0.0, tau=-1.0)
    with pytest.raises(ValueError):
        DeltaKick(math.inf, 0.0)


def test_integrated_strength_kick_capture():
    assert integrated_strength(DeltaKick(0.7, 5.0), 0.0, 10.0) == 0.7
    assert integrated_strength(DeltaKick(0.7, 5.0), 6.0, 10.0) == 0.0
    # boundary kick counts as inside (closed interval convention)
    assert integrated_strength(DeltaKick(0.7, 5.0), 5.0, 10.0) == 0.7


def test_integrated_strength_gaussian_normalization():
    p = Gaussian(1.0, 0.0, 1.0)
    assert integrated_strength(p, -1e3, 1e3) == pytest.approx(1.0, abs=1e-15)


def test_integrated_strength_rectangular_ramp():
    p = Rectangular(2.0, 0.0, 4.0)
    assert integrated_strength(p, 0.0, 2.0) == pytest.approx(1.0, abs=1e-15)


def test_integrated_strength_matches_quadrature():
    pulses = [Gaussian(0.8, 1.0, 0.3), Rectangular(1.1, 0.5, 2.0)]
    for p in pulses:
        lo, hi = pulse_support(p)
        quad = recursive_simpson(lambda t: value_at(p, t), lo, hi, 1e-11)
        assert quad == pytest.approx(integrated_strength(p, lo, hi), abs=1e-10)


def test_schedule_strength_sum_quadrature_vs_closed_form():
    # Integrating every smooth pulse numerically over the window recovers
    # the summed areas from the closed forms.
    s = Schedule(1.0, (Gaussian(0.8, 1.5, 0.2), Rectangular(1.1, 3.0, 0.8)), 0.0, 5.0)
    total = 0.0
    for p in s.pulses:
        lo, hi = pulse_support(p)
        total += recursive_simpson(lambda t, p=p: value_at(p, t), lo, hi, 1e-11)
    assert total == pytest.approx(sum(p.alpha for p in s.pulses), abs=1e-10)


def test_schedule_sorts_and_validates():
    s = Schedule(1.0, (DeltaKick(0.2, 3.0), DeltaKick(0.1, 1.0)), 0.0, 4.0)
    assert [p.t_k for p in s.pulses] == [1.0, 3.0]
    with pytest.raises(ValueError):
        Schedule(1.0, (), 2.0, 2.0)


def test_schedule_flags_support_overhang():
    with pytest.warns(UserWarning, match="outside"):
        Schedule(1.0, (Gaussian(1.0, 0.5, 1.0),), 0.0, 10.0)


def test_hamiltonian_free_case():
    s = Schedule(2.0, (), 0.0, 1.0)
    np.testing.assert_array_equal(schrodinger_hamiltonian(s, 0.3), np.diag([-1.0, 1.0]))


def test_hamiltonian_degenerate_with_rectangular():
    s = Schedule(0.0, (Rectangular(1.0, 0.0, 1.0),), 0.0, 1.0)
    np.testing.assert_allclose(schrodinger_hamiltonian(s, 0.5), SIGMA_X, atol=1e-15)


def test_hamiltonian_gaussian_peak():
    tau = 0.2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(2.0, (Gaussian(0.5, 2.0, tau),), 0.0, 4.0)
    expected = -SIGMA_Z + 0.5 / (math.sqrt(math.pi) * tau) * SIGMA_X
    np.testing.assert_allclose(schrodinger_hamiltonian(s, 2.0), expected, atol=1e-15)


def test_hamiltonian_rejects_kicks():
    s = Schedule(1.0, (DeltaKick(0.3, 0.5),), 0.0, 1.0)
    with pytest.raises(ValueError):
        schrodinger_hamiltonian(s, 0.5)
    with pytest.raises(ValueError):
        interaction_potential(s, 0.5)


def test_interaction_matches_schrodinger_when_degenerate():
    s = Schedule(0.0, (Gaussian(1.0, 0.5, 0.08),), 0.0, 1.0)
    t = 0.45
    np.testing.assert_allclose(
        interaction_potential(s, t),
        value_at(s.pulses[0], t) * SIGMA_X,
        atol=1e-15,
    )


def test_interaction_offdiagonal_magnitude_invariant():
    s = Schedule(3.0, (Gaussian(1.0, 0.5, 0.08),), 0.0, 1.0)
    for t in np.linspace(0.2, 0.8, 7):
        v = interaction_potential(s, t)
        assert abs(v[0, 1]) == pytest.approx(abs(value_at(s.pulses[0], t)), abs=1e-12)


def test_rotated_coupling_against_conjugation_oracle():
    # The one rule every coupling matrix comes from, checked entrywise against
    # the explicit series conjugation: every axis, several angles, the
    # unrotated rate 0, scalar and array times, real and complex amplitudes.
    times = np.array([math.pi, 0.35, 3.1, -2.0])
    amps = np.array([0.3, -1.2, 2.0, 0.5])
    for delta_e in (1.0, 2.0, 0.7, 0.0):
        for axis in PauliAxis:
            oracle = np.array([conjugated_coupling(delta_e, t, axis) for t in times])
            np.testing.assert_allclose(rotated_axis_matrix(delta_e, times, axis), oracle, atol=1e-12)
            for t, r in zip(times, oracle):
                np.testing.assert_allclose(rotated_axis_matrix(delta_e, t, axis), r, atol=1e-12)
            scaled = rotated_axis_matrix(delta_e, times, axis, amps)
            np.testing.assert_allclose(scaled, amps[:, None, None] * oracle, atol=1e-12)
            np.testing.assert_allclose(
                rotated_axis_matrix(delta_e, times[0], axis, amps), amps[:, None, None] * oracle[0], atol=1e-12
            )
            if axis is not PauliAxis.Z:
                z = 0.6 - 0.8j  # scales the (1, 2) entry, its conjugate the (2, 1) entry
                m = rotated_axis_matrix(delta_e, times, axis, z)
                np.testing.assert_allclose(m[:, 0, 1], z * oracle[:, 0, 1], atol=1e-12)
                np.testing.assert_allclose(m[:, 1, 0], np.conj(z) * oracle[:, 1, 0], atol=1e-12)
                np.testing.assert_array_equal(m, np.conj(np.swapaxes(m, -1, -2)))
    np.testing.assert_allclose(
        rotated_axis_matrix(1.0, math.pi, PauliAxis.X), -SIGMA_X, atol=1e-12
    )


SMOOTH_PULSES = st.lists(
    st.builds(Gaussian, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0), st.sampled_from(PauliAxis))
    | st.builds(Rectangular, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0), st.sampled_from(PauliAxis)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(SMOOTH_PULSES, st.floats(-3.0, 3.0), st.lists(st.floats(-8.0, 8.0), max_size=20), st.sampled_from(Representation))
def test_coupling_samples_is_the_pointwise_sum_at_every_time(pulses, delta_e, times, rep):
    # Rectangular edges are sampled exactly: the pulse is on at both ends.
    times += [e for p in pulses if isinstance(p, Rectangular) for e in pulse_support(p)]
    batch = coupling_samples(delta_e, pulses, np.array(times), rep)
    assert batch.shape == (len(times), 2, 2)
    scale = sum(abs(p.alpha) / p.tau for p in pulses)
    for t, v in zip(times, batch):
        np.testing.assert_allclose(v, coupling_sum(delta_e, pulses, t, rep), rtol=1e-15, atol=1e-15 * scale)


def test_coupling_samples_rejects_kicks():
    with pytest.raises(ValueError, match="delta kick"):
        coupling_samples(1.0, [DeltaKick(0.3, 1.0)], np.array([1.0]), Representation.INTERACTION)


def test_time_average_single_kick_reproduces_kick_propagator():
    # Exponentiating the averaged kick generator must rebuild the closed-form
    # single-kick propagator exactly.
    delta_e, alpha, t_k = 1.3, 0.6, 2.0
    s = Schedule(delta_e, (DeltaKick(alpha, t_k),), 0.0, 5.0)
    vbar = coupling_integral(s, s.t0, s.tf, Representation.INTERACTION) / s.duration()
    np.testing.assert_allclose(
        vbar, alpha / 5.0 * rotated_axis_matrix(delta_e, t_k, PauliAxis.X), atol=1e-14
    )
    u = exp_minus_i_generator(vbar, s.duration())
    np.testing.assert_allclose(u, single_kick(delta_e, DeltaKick(alpha, t_k)), atol=1e-13)


def test_time_average_opposite_pair_generator():
    # For the +/- pair the mean coupling is (2 alpha / T) sin(dE t_minus / 2)
    # times a unit-norm matrix in the sigma_x-sigma_y plane.
    delta_e, alpha, t1, t2, tf = 0.9, 0.4, 1.0, 3.0, 4.0
    s = Schedule(delta_e, (DeltaKick(alpha, t1), DeltaKick(-alpha, t2)), 0.0, tf)
    vbar = coupling_integral(s, s.t0, s.tf, Representation.INTERACTION) / s.duration()
    scale = 2.0 * alpha / tf * math.sin(0.5 * delta_e * (t2 - t1))
    direction = vbar / scale
    assert abs(direction[0, 0]) < 1e-14
    assert abs(direction[0, 1]) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(direction @ direction, np.eye(2), atol=1e-12)


def test_time_average_zero_without_pulses():
    s = Schedule(1.0, (), 0.0, 2.0)
    for rep in Representation:
        np.testing.assert_array_equal(coupling_integral(s, s.t0, s.tf, rep) / s.duration(), np.zeros((2, 2)))


def test_time_average_hermitian_both_pictures():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(
            1.7, (Gaussian(0.7, 1.0, 0.4), Rectangular(0.3, 2.0, 1.0, PauliAxis.Y)), 0.0, 4.0
        )
    for rep in Representation:
        v = coupling_integral(s, s.t0, s.tf, rep) / s.duration()
        np.testing.assert_allclose(v, dagger(v), atol=1e-12)


def test_time_average_pictures_coincide_when_degenerate():
    s = Schedule(0.0, (Gaussian(0.7, 2.0, 0.3),), 0.0, 4.0)
    np.testing.assert_allclose(
        coupling_integral(s, s.t0, s.tf, Representation.INTERACTION) / s.duration(),
        coupling_integral(s, s.t0, s.tf, Representation.SCHRODINGER) / s.duration(),
        atol=1e-12,
    )


def _window(a: float, b: float, kind: str, f: float, g: float) -> tuple[float, float]:
    """A window that covers [a, b], cuts it at one edge, or lies after it."""
    w = b - a
    if kind == "cover":
        return a - f * w, b + g * w
    if kind == "clip-left":
        return a + f * w, b + g * w
    if kind == "clip-right":
        return a - g * w, b - f * w
    return b + f * w, b + (1.0 + f + g) * w


@settings(deadline=None)
@given(
    rectangular=st.booleans(),
    axis=st.sampled_from(list(PauliAxis)),
    delta_e=st.one_of(st.just(0.0), st.floats(-4.0, -0.01), st.floats(0.01, 4.0)),
    alpha=st.floats(-2.0, 2.0),
    center=st.floats(-5.0, 5.0),
    tau=st.floats(0.2, 2.0),
    kind=st.sampled_from(["cover", "clip-left", "clip-right", "miss"]),
    f=st.floats(0.01, 0.99),
    g=st.floats(0.0, 1.0),
)
def test_interaction_coupling_integral_matches_quadrature(
    rectangular, axis, delta_e, alpha, center, tau, kind, f, g
):
    p = Rectangular(alpha, center, tau, axis) if rectangular else Gaussian(alpha, center, tau, axis)
    lo, hi = _window(*pulse_support(p), kind, f, g)
    got = pulse_coupling_integral(p, delta_e, lo, hi, Representation.INTERACTION)
    a, b = pulse_support(p)
    a, b = max(a, lo), min(b, hi)
    expected = np.zeros((2, 2), dtype=complex)
    if b > a:
        expected = recursive_simpson(
            lambda t: value_at(p, t) * rotated_axis_matrix(delta_e, t, axis), a, b, 1e-13
        )
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_faddeeva_on_the_imaginary_axis():
    for y in np.linspace(0.0, 5.0, 51):
        assert faddeeva(complex(0.0, y)) == pytest.approx(math.exp(y * y) * math.erfc(y), rel=1e-13)


def test_faddeeva_real_part_on_the_real_axis():
    for x in np.linspace(-8.0, 8.0, 161):
        assert abs(faddeeva(complex(x, 0.0)).real - math.exp(-x * x)) <= 1e-14


def test_faddeeva_asymptote():
    # w(z) = i / (sqrt(pi) z) (1 + 1/(2 z^2) + O(z^-4)) for large |z|.
    for phase in np.linspace(0.0, math.pi, 7):
        z = 1e3 * cmath.exp(1j * phase)
        leading = 1j / (math.sqrt(math.pi) * z)
        assert abs(faddeeva(z) - leading * (1.0 + 0.5 / z**2)) <= 1e-11 * abs(leading)


def test_faddeeva_rejects_the_lower_half_plane():
    with pytest.raises(ValueError, match="Im z"):
        faddeeva(complex(0.3, -1e-3))


def test_faddeeva_against_scipy_wofz():
    pytest.importorskip("scipy")
    from scipy.special import wofz

    rng = np.random.default_rng(1994)
    z = rng.uniform(-8.0, 8.0, 20000) + 1j * rng.uniform(0.0, 8.0, 20000)
    z = np.concatenate((z, [1e3, -1e3, 1e3j, 700.0 + 700.0j, -700.0 + 700.0j, 5.0 + 1e3j, 0.0]))
    got = np.array([faddeeva(complex(v)) for v in z])
    want = wofz(z)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13


ANY_PULSE = (
    st.builds(DeltaKick, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.sampled_from(PauliAxis))
    | st.builds(Gaussian, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0), st.sampled_from(PauliAxis))
    | st.builds(Rectangular, st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.05, 2.0), st.sampled_from(PauliAxis))
)
# Limits as fractions of a support: before it, on its ends, inside and after it.
FRACTIONS = st.lists(st.sampled_from([-0.5, 0.0, 1.0, 1.5]) | st.floats(-1.0, 2.0), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(ANY_PULSE, min_size=1, max_size=4),
    st.floats(-3.0, 3.0),
    st.floats(-15.0, 1.0),
    FRACTIONS,
    st.sampled_from(Representation),
)
def test_array_limits_give_the_stacked_scalar_integrals(pulses, delta_e, lo, fractions, rep):
    limits = np.array([a + f * (b - a + 0.1) for p in pulses for a, b in [pulse_support(p)] for f in fractions])
    scale = 4e-15 * max(1.0, sum(abs(p.alpha) for p in pulses))
    for p in pulses:
        stacked = np.array([pulse_coupling_integral(p, delta_e, lo, hi, rep) for hi in limits])
        got = pulse_coupling_integral(p, delta_e, lo, limits, rep)
        assert got.shape == limits.shape + (2, 2)
        assert np.max(np.abs(got - stacked)) <= scale
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(delta_e, tuple(pulses), -20.0, 20.0)
    stacked = np.array([coupling_integral(s, lo, hi, rep) for hi in limits])
    grid = limits.reshape(-1, 1)
    got = coupling_integral(s, lo, grid, rep)
    assert got.shape == grid.shape + (2, 2)
    assert np.max(np.abs(got[:, 0] - stacked)) <= scale


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-60.0, 60.0), st.floats(0.0, 60.0)), min_size=1, max_size=30))
def test_array_faddeeva_is_the_scalar_function_elementwise(points):
    z = np.array([complex(x, y) for x, y in points] + [0j, 1e3j, 700.0 + 700.0j, -1e3 + 0j])
    got = faddeeva(z)
    assert got.shape == z.shape
    want = np.array([faddeeva(complex(v)) for v in z])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-15


def test_array_faddeeva_rejects_any_point_in_the_lower_half_plane():
    with pytest.raises(ValueError, match="Im z"):
        faddeeva(np.array([0.3 + 1.0j, 0.3 - 1e-3j]))
