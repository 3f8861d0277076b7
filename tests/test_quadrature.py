import math

import numpy as np
import pytest

from kickedqubit.quadrature import adaptive_simpson
from oracles import recursive_simpson


def test_polynomial_is_exact():
    assert adaptive_simpson(lambda t: 3 * t**2, 0.0, 2.0, 1e-12) == pytest.approx(8.0, abs=1e-12)


def test_gaussian_against_erf():
    value = adaptive_simpson(lambda t: np.exp(-(t * t)), -3.0, 3.0, 1e-12)
    assert value == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), abs=1e-11)


def test_oscillatory_integrand():
    value = adaptive_simpson(lambda t: np.cos(5 * t), 0.0, 2.0, 1e-12)
    assert value == pytest.approx(math.sin(10.0) / 5.0, abs=1e-11)


def test_reversed_and_empty_bounds():
    assert adaptive_simpson(lambda t: t, 1.0, 1.0, 1e-12) == 0.0
    forward = adaptive_simpson(lambda t: t**3, 0.0, 1.5, 1e-12)
    backward = adaptive_simpson(lambda t: t**3, 1.5, 0.0, 1e-12)
    assert backward == pytest.approx(-forward, abs=1e-13)


def test_matrix_valued_integrand():
    def f(t):
        return np.stack((t, np.sin(t), np.exp(-t), np.ones_like(t)), axis=-1).reshape(-1, 2, 2).astype(complex)

    got = adaptive_simpson(f, 0.0, 1.0, 1e-12)
    expected = np.array(
        [[0.5, 1.0 - math.cos(1.0)], [1.0 - math.exp(-1.0), 1.0]], dtype=complex
    )
    np.testing.assert_allclose(got, expected, atol=1e-11)


def test_complex_scalar_integrand():
    value = adaptive_simpson(lambda t: np.exp(1j * t), 0.0, math.pi, 1e-12)
    assert value == pytest.approx(2j, abs=1e-11)


def test_each_node_follows_its_left_neighbour():
    # The first batch is a, the midpoint and b; every node of a later batch is
    # the midpoint of the nearest nodes of earlier batches on each side.
    batches = []

    def f(t):
        batches.append(t.tolist())
        return np.exp(-t * t) * np.cos(3.0 * t)

    adaptive_simpson(f, -2.0, 3.0, 1e-10)
    assert batches[0] == [-2.0, 0.5, 3.0]
    assert sum(map(len, batches)) > 100
    seen = list(batches[0])
    for batch in batches[1:]:
        for t in batch:
            left = max(x for x in seen if x < t)
            right = min(x for x in seen if x > t)
            assert t == 0.5 * (left + right)
        seen += batch


@pytest.mark.parametrize(
    "f, a, b, tol",
    [
        (lambda t: np.exp(-t * t) * np.cos(3.0 * t), -2.0, 3.0, 1e-10),
        (lambda t: np.sqrt(np.abs(t)), -1.0, 2.0, 1e-9),
        (lambda t: np.exp(1j * 7.0 * t) / (1.0 + t * t), 0.0, 4.0, 1e-11),
        (lambda t: np.stack((np.sin(t), t * t, np.exp(t), 1j * t), axis=-1).reshape(-1, 2, 2), 0.0, 1.5, 1e-12),
    ],
    ids=["gaussian-cosine", "cusp", "complex", "matrix"],
)
def test_levels_match_the_recursive_routine(f, a, b, tol):
    # The same accept rule on the same values: the same nodes, and the same
    # integral up to the order of summation.
    nodes, recursive_nodes = [], []

    def batched(t):
        nodes.extend(t.tolist())
        return f(t)

    def one_at_a_time(t):
        recursive_nodes.append(t)
        return f(np.array([t]))[0]

    got = adaptive_simpson(batched, a, b, tol, 30)
    want = recursive_simpson(one_at_a_time, a, b, tol, 30)
    assert sorted(nodes) == sorted(recursive_nodes)
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_depth_limit_accepts_every_interval_left():
    # At max_depth 2 at most 3 levels run: 3 + 2 + 4 + 8 nodes.
    calls = []

    def f(t):
        calls.append(t.size)
        return np.abs(np.sin(50.0 * t))

    adaptive_simpson(f, 0.0, 3.0, 1e-14, 2)
    assert calls == [3, 2, 4, 8]


def test_a_level_beyond_the_interval_limit_raises(monkeypatch):
    # A tolerance nothing meets doubles the open intervals every level.
    monkeypatch.setattr("kickedqubit.quadrature.MAX_INTERVALS", 64)
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.sign(np.sin(1e3 * t))

    with pytest.raises(FloatingPointError, match="64"):
        adaptive_simpson(f, 0.0, 1.0, 1e-300, 40)
    assert sizes[-1] == 2 * 64
