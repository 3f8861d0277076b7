import math

import numpy as np
import pytest

from kickedqubit.quadrature import adaptive_simpson


def test_polynomial_is_exact():
    assert adaptive_simpson(lambda t: 3 * t**2, 0.0, 2.0, 1e-12) == pytest.approx(8.0, abs=1e-12)


def test_gaussian_against_erf():
    value = adaptive_simpson(lambda t: math.exp(-(t * t)), -3.0, 3.0, 1e-12)
    assert value == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), abs=1e-11)


def test_oscillatory_integrand():
    value = adaptive_simpson(lambda t: math.cos(5 * t), 0.0, 2.0, 1e-12)
    assert value == pytest.approx(math.sin(10.0) / 5.0, abs=1e-11)


def test_reversed_and_empty_bounds():
    assert adaptive_simpson(lambda t: t, 1.0, 1.0, 1e-12) == 0.0
    forward = adaptive_simpson(lambda t: t**3, 0.0, 1.5, 1e-12)
    backward = adaptive_simpson(lambda t: t**3, 1.5, 0.0, 1e-12)
    assert backward == pytest.approx(-forward, abs=1e-13)


def test_matrix_valued_integrand():
    def f(t):
        return np.array([[t, math.sin(t)], [math.exp(-t), 1.0]], dtype=complex)

    got = adaptive_simpson(f, 0.0, 1.0, 1e-12)
    expected = np.array(
        [[0.5, 1.0 - math.cos(1.0)], [1.0 - math.exp(-1.0), 1.0]], dtype=complex
    )
    np.testing.assert_allclose(got, expected, atol=1e-11)


def test_complex_scalar_integrand():
    value = adaptive_simpson(lambda t: np.exp(1j * t), 0.0, math.pi, 1e-12)
    assert value == pytest.approx(2j, abs=1e-11)


def test_each_node_follows_its_left_neighbour():
    # An integrand may extend a running integral from the nearest node on its
    # left: the first calls are a, the midpoint and b, and every later call is
    # the midpoint of the nearest nodes already evaluated on each side.
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(-t * t) * math.cos(3.0 * t)

    adaptive_simpson(f, -2.0, 3.0, 1e-10)
    assert calls[:3] == [-2.0, 0.5, 3.0]
    assert len(calls) > 100
    for i, t in enumerate(calls[3:], start=3):
        left = max(x for x in calls[:i] if x < t)
        right = min(x for x in calls[:i] if x > t)
        assert t == 0.5 * (left + right)
