import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kickedqubit.propagators import single_kick
from kickedqubit.pulses import DeltaKick
from kickedqubit.su2 import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    PauliAxis,
    bloch_components,
    dagger,
    exp_i_phi_sigma_u,
    exp_minus_i_generator,
    pauli,
    probabilities,
    sigma_dot_u,
    unitarity_defect,
)


def taylor_exponential(phi, u, terms=16):
    """Independent oracle: truncated series of exp(i phi sigma.u)."""
    a = 1j * phi * sigma_dot_u(u)
    total = np.eye(2, dtype=complex)
    power = np.eye(2, dtype=complex)
    for n in range(1, terms):
        power = power @ a / n
        total = total + power
    return total


def random_unitary(rng):
    phi = rng.uniform(-math.pi, math.pi)
    v = rng.normal(size=3)
    return exp_i_phi_sigma_u(phi, v / np.linalg.norm(v))


def test_pauli_matrices_standard():
    np.testing.assert_array_equal(pauli(PauliAxis.X), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(pauli(PauliAxis.Z), [[1, 0], [0, -1]])
    np.testing.assert_array_equal(pauli(PauliAxis.Y), [[0, -1j], [1j, 0]])


@pytest.mark.parametrize("axis", list(PauliAxis))
def test_pauli_hermitian_traceless_involutive(axis):
    s = pauli(axis)
    np.testing.assert_array_equal(s, dagger(s))
    assert np.trace(s) == 0
    np.testing.assert_array_equal(s @ s, ID2)


def test_exp_zero_angle_is_identity():
    np.testing.assert_array_equal(exp_i_phi_sigma_u(0.0, (0, 0, 1)), ID2)


def test_exp_half_pi_about_z():
    np.testing.assert_allclose(
        exp_i_phi_sigma_u(math.pi / 2, (0, 0, 1)), np.diag([1j, -1j]), atol=1e-15
    )


def test_exp_quarter_pi_about_x_matches_taylor_oracle():
    got = exp_i_phi_sigma_u(math.pi / 4, (1, 0, 0))
    np.testing.assert_allclose(got, taylor_exponential(math.pi / 4, (1, 0, 0)), atol=1e-12)


def test_exp_rejects_unnormalized_axis():
    with pytest.raises(ValueError):
        exp_i_phi_sigma_u(0.3, (1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        exp_i_phi_sigma_u(math.nan, (1.0, 0.0, 0.0))


def test_compose_identity_and_inverse():
    rng = np.random.default_rng(7)
    u = random_unitary(rng)
    np.testing.assert_allclose(ID2 @ u, u, atol=1e-15)
    np.testing.assert_allclose(u @ dagger(u), ID2, atol=1e-14)


def test_compose_order_matters_for_paulis():
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(SIGMA_Y @ SIGMA_X, -1j * SIGMA_Z, atol=1e-15)


def test_dagger_examples():
    np.testing.assert_array_equal(dagger(ID2), ID2)
    theta = 0.8
    d = np.diag([np.exp(1j * theta), np.exp(-1j * theta)])
    np.testing.assert_allclose(dagger(d), np.diag([np.exp(-1j * theta), np.exp(1j * theta)]))


def test_dagger_of_kick_propagator_inverts_it():
    u = single_kick(1.0, DeltaKick(0.3, 2.0))
    np.testing.assert_allclose(dagger(u) @ u, ID2, atol=1e-14)


def test_full_transfer_kick():
    # An area pi/2 kick moves all population to the second level.
    s = single_kick(0.7, DeltaKick(math.pi / 2, 1.3)) @ np.array([1.0, 0.0])
    assert probabilities(s)[1] == pytest.approx(1.0, abs=1e-14)


def test_probabilities_examples():
    assert probabilities(np.array([1.0, 0.0])) == (1.0, 0.0)
    s = np.array([(1 + 1j) / 2, (1 - 1j) / 2])
    assert probabilities(s) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_probabilities_of_kicked_state():
    s = single_kick(1.0, DeltaKick(math.pi / 3, 0.5)) @ np.array([1.0, 0.0])
    p1, p2 = probabilities(s)
    assert p1 == pytest.approx(0.25, abs=1e-14)
    assert p2 == pytest.approx(0.75, abs=1e-14)


@given(
    phi=st.floats(-10, 10),
    vx=st.floats(-1, 1),
    vy=st.floats(-1, 1),
    vz=st.floats(0.1, 1),
)
def test_exp_inverse_property(phi, vx, vy, vz):
    v = np.array([vx, vy, vz])
    u = v / np.linalg.norm(v)
    prod = exp_i_phi_sigma_u(phi, u) @ exp_i_phi_sigma_u(-phi, u)
    np.testing.assert_allclose(prod, ID2, atol=1e-12)


def test_probabilities_preserved_by_propagators():
    rng = np.random.default_rng(3)
    for _ in range(25):
        u = random_unitary(rng)
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = raw / np.linalg.norm(raw)
        p1, p2 = probabilities(u @ state)
        assert p1 + p2 == pytest.approx(1.0, abs=1e-12)


def test_dagger_antidistributes_over_compose():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b = random_unitary(rng), random_unitary(rng)
        np.testing.assert_allclose(
            dagger(a @ b), dagger(b) @ dagger(a), atol=1e-12
        )


def test_unitarity_defect_detects_nonunitary():
    assert unitarity_defect(ID2) == 0.0
    assert unitarity_defect(2.0 * ID2) == pytest.approx(3.0)


def test_generator_roundtrip():
    g = 0.3 * SIGMA_X - 1.1 * SIGMA_Y + 0.25 * SIGMA_Z
    assert bloch_components(g) == pytest.approx((0.3, -1.1, 0.25))
    np.testing.assert_allclose(exp_minus_i_generator(g, 2.0), _expm(-2j * g), atol=1e-12)


def _expm(a: np.ndarray) -> np.ndarray:
    """Series matrix exponential, independent of the SU(2) identity."""
    total = np.eye(2, dtype=complex)
    power = np.eye(2, dtype=complex)
    for n in range(1, 30):
        power = power @ a / n
        total = total + power
    return total


def test_zero_generator_gives_identity():
    np.testing.assert_array_equal(exp_minus_i_generator(np.zeros((2, 2)), 5.0), ID2)


@pytest.mark.parametrize("scale", [1e-160, 1e160])
def test_generator_of_extreme_size_exponentiates(scale):
    # Squaring entries of this size underflows or overflows; the rotation by angle 1 must come out whole.
    g = 0.6 * SIGMA_X + 0.8 * SIGMA_Z
    np.testing.assert_allclose(exp_minus_i_generator(scale * g, 1.0 / scale), exp_minus_i_generator(g), atol=1e-15)


def random_generators(rng, n):
    """n traceless Hermitian matrices of sizes spread over six decades, with the zero matrix among them."""
    c = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    g = c[:, 0, None, None] * SIGMA_X + c[:, 1, None, None] * SIGMA_Y + c[:, 2, None, None] * SIGMA_Z
    g[::50] = 0.0
    return g


def test_stacked_exponential_is_the_per_matrix_exponential():
    # The same operations per matrix, so a stack gives each matrix bit for bit.
    rng = np.random.default_rng(7)
    g = random_generators(rng, 400)
    g[1], g[2] = 1e-160 * g[3], 1e160 * g[4]
    durations = 10.0 ** rng.uniform(-2.0, 2.0, 400)
    durations[1], durations[2] = 1e160, 1e-160
    stacked = exp_minus_i_generator(g, durations)
    assert stacked.shape == (400, 2, 2)
    for i in range(400):
        assert np.array_equal(stacked[i], exp_minus_i_generator(g[i], float(durations[i])))
    np.testing.assert_array_equal(stacked[0], ID2)
    np.testing.assert_allclose(stacked[1], exp_minus_i_generator(g[3]), atol=1e-15)


def test_stacked_exponential_broadcasts_its_duration():
    rng = np.random.default_rng(8)
    g = random_generators(rng, 12).reshape(3, 4, 2, 2)
    for duration in (2.5, np.linspace(0.5, 2.0, 4), np.array([[0.5], [1.0], [2.0]])):
        got = exp_minus_i_generator(g, duration)
        d = np.broadcast_to(duration, (3, 4))
        assert got.shape == (3, 4, 2, 2)
        for i, j in np.ndindex(3, 4):
            assert np.array_equal(got[i, j], exp_minus_i_generator(g[i, j], float(d[i, j])))
    assert exp_minus_i_generator(np.zeros((0, 2, 2)), 1.0).shape == (0, 2, 2)


def test_stacked_bloch_components_are_the_per_matrix_components():
    g = random_generators(np.random.default_rng(9), 20)
    stacked = bloch_components(g)
    for i in range(20):
        assert tuple(c[i] for c in stacked) == bloch_components(g[i])


def test_stacked_exponential_against_the_validated_form():
    # exp_i_phi_sigma_u checks its unit axis; the stacked exponential must agree with it to rounding.
    g = random_generators(np.random.default_rng(10), 200)[1::2]
    for gi, u in zip(g, exp_minus_i_generator(g, 0.7)):
        c = np.array(bloch_components(gi))
        phi = -0.7 * np.linalg.norm(c)  # up to about 3e3, so rounding grows with it
        np.testing.assert_allclose(u, exp_i_phi_sigma_u(phi, c / np.linalg.norm(c)), rtol=0, atol=1e-15 * (1 - phi))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_nonfinite_generator_or_duration_is_refused(bad):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        exp_minus_i_generator(np.array([0.3 * SIGMA_X, bad * SIGMA_Z]))
    with pytest.raises(ValueError):
        exp_minus_i_generator(0.3 * SIGMA_X, bad)
