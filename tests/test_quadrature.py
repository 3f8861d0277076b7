import math

import numpy as np
import pytest

from kickedqubit import quadrature
from kickedqubit.quadrature import NODES, WEIGHTS, adaptive_gauss_legendre
from oracles import recursive_gauss_legendre


def test_polynomial_is_exact():
    assert adaptive_gauss_legendre(lambda t: 3 * t**2, 0.0, 2.0, 1e-12) == pytest.approx(8.0, abs=1e-12)


def test_gaussian_against_erf():
    value = adaptive_gauss_legendre(lambda t: np.exp(-(t * t)), -3.0, 3.0, 1e-12)
    assert value == pytest.approx(math.sqrt(math.pi) * math.erf(3.0), abs=1e-11)


def test_oscillatory_integrand():
    value = adaptive_gauss_legendre(lambda t: np.cos(5 * t), 0.0, 2.0, 1e-12)
    assert value == pytest.approx(math.sin(10.0) / 5.0, abs=1e-11)


def test_reversed_and_empty_bounds():
    assert adaptive_gauss_legendre(lambda t: t, 1.0, 1.0, 1e-12) == 0.0
    forward = adaptive_gauss_legendre(lambda t: t**3, 0.0, 1.5, 1e-12)
    backward = adaptive_gauss_legendre(lambda t: t**3, 1.5, 0.0, 1e-12)
    assert backward == pytest.approx(-forward, abs=1e-13)


def test_matrix_valued_integrand():
    def f(t):
        return np.stack((t, np.sin(t), np.exp(-t), np.ones_like(t)), axis=-1).reshape(-1, 2, 2).astype(complex)

    got = adaptive_gauss_legendre(f, 0.0, 1.0, 1e-12)
    expected = np.array(
        [[0.5, 1.0 - math.cos(1.0)], [1.0 - math.exp(-1.0), 1.0]], dtype=complex
    )
    np.testing.assert_allclose(got, expected, atol=1e-11)


def test_complex_scalar_integrand():
    value = adaptive_gauss_legendre(lambda t: np.exp(1j * t), 0.0, math.pi, 1e-12)
    assert value == pytest.approx(2j, abs=1e-11)


def panels_of(batch):
    """The panels [lo, hi] whose Gauss nodes make up one integrand call, 24 nodes each."""
    groups = np.asarray(batch).reshape(-1, NODES.size)
    half = (groups[:, -1] - groups[:, 0]) / (NODES[-1] - NODES[0])
    mid = 0.5 * (groups[:, -1] + groups[:, 0])
    np.testing.assert_allclose(groups, mid[:, None] + np.outer(half, NODES), rtol=0, atol=1e-13)
    return [(m - h, m + h) for m, h in zip(mid, half)]


def test_each_node_follows_its_left_neighbour():
    # The first call samples [a, b] and its halves; every later call samples
    # both halves of each panel of the call before that was split, and nothing else.
    batches = []

    def f(t):
        batches.append(t.tolist())
        return np.sqrt(np.abs(t - 0.3))  # a cusp keeps some panels open for many rounds

    adaptive_gauss_legendre(f, -2.0, 3.0, 1e-10)
    np.testing.assert_allclose(panels_of(batches[0]), [(-2.0, 3.0), (-2.0, 0.5), (0.5, 3.0)], rtol=0, atol=1e-13)
    assert len(batches) > 10
    previous = panels_of(batches[0])[1:]
    for batch in batches[1:]:
        panels = panels_of(batch)
        lefts, rights = panels[: len(panels) // 2], panels[len(panels) // 2:]
        for (lo, m), (m2, hi) in zip(lefts, rights):
            assert m == pytest.approx(m2, abs=1e-13) and m == pytest.approx(0.5 * (lo + hi), abs=1e-13)
            assert min(max(abs(lo - p), abs(hi - q)) for p, q in previous) <= 1e-13
        previous = panels


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
def test_levels_match_the_recursive_routine(f, a, b, tol, monkeypatch):
    # The same accept rule on the same values, round by round against depth
    # first: the same nodes, and the same integral up to the order of summation.
    nodes, recursive_nodes = [], []

    def batched(t):
        nodes.extend(t.tolist())
        return f(t)

    def one_at_a_time(t):
        recursive_nodes.append(t)
        return f(np.array([t]))[0]

    monkeypatch.setattr(quadrature, "MAX_DEPTH", 30)
    got = adaptive_gauss_legendre(batched, a, b, tol)
    want = recursive_gauss_legendre(one_at_a_time, a, b, tol, 30, NODES, WEIGHTS)
    assert sorted(nodes) == sorted(recursive_nodes)
    assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_depth_limit_accepts_every_interval_left(monkeypatch):
    # At MAX_DEPTH 2 three rounds run: [a, b] and its halves, then 2 and 4 open panels split.
    calls = []

    def f(t):
        calls.append(t.size)
        return np.abs(np.sin(50.0 * t))

    monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
    adaptive_gauss_legendre(f, 0.0, 3.0, 1e-14)
    assert calls == [3 * 24, 2 * 2 * 24, 4 * 2 * 24]


def test_a_level_beyond_the_interval_limit_raises(monkeypatch):
    # A tolerance nothing meets doubles the open panels every round; the call
    # that would pass the node bound is refused before it is made.
    monkeypatch.setattr(quadrature, "MAX_NODES", 16 * 48)
    monkeypatch.setattr(quadrature, "MAX_DEPTH", 40)
    sizes = []

    def f(t):
        sizes.append(t.size)
        return np.sign(np.sin(1e3 * t))

    with pytest.raises(FloatingPointError, match="1536 Gauss-Legendre nodes in one call, above 768"):
        adaptive_gauss_legendre(f, 0.0, 1.0, 1e-300)
    assert sizes == [72, 96, 192, 384, 768]


def test_node_table_matches_leggauss():
    x, w = np.polynomial.legendre.leggauss(24)
    assert np.max(np.abs(NODES - x)) <= 1e-14
    assert np.max(np.abs(WEIGHTS - w)) <= 1e-14


def test_one_panel_is_exact_to_degree_47():
    # The rule integrates x^d on [-1, 1] exactly for d <= 47 but not P_24^2, of
    # degree 48, which vanishes at every node; a polynomial of degree 47 is
    # accepted on the first call.
    for d in range(48):
        assert np.dot(WEIGHTS, NODES**d) == pytest.approx(2.0 / (d + 1) if d % 2 == 0 else 0.0, abs=1e-15)
    p24 = np.polynomial.legendre.legval(NODES, [0.0] * 24 + [1.0])
    assert np.dot(WEIGHTS, p24**2) == pytest.approx(0.0, abs=1e-28)  # the integral is 2/49
    coefficients = np.random.default_rng(7).normal(size=48)
    calls = []

    def f(t):
        calls.append(t.size)
        return np.polyval(coefficients, t)

    got = adaptive_gauss_legendre(f, -1.0, 0.75, 1e-12)
    primitive = np.polyint(coefficients)
    assert calls == [72]
    assert got == pytest.approx(np.polyval(primitive, 0.75) - np.polyval(primitive, -1.0), abs=1e-13)
