import math
import sys
import warnings

import numpy as np
import pytest
from oracles import truncated_nto_reference

import kickedqubit.cli as cli
import kickedqubit.diagnostics as diagnostics
import kickedqubit.ode as ode
from kickedqubit.diagnostics import (
    MapRegime,
    classify_regime,
    default_surface_grids,
    kick_limit_scan,
    observation_time_scan,
    ordering_difference_surface,
    p2_nto,
    p2_ordered,
    transfer_probabilities,
)
from kickedqubit.ode import IntegratorConfig, propagate
from kickedqubit.propagators import nto_opposite_pair, nto_propagator, opposite_kick_pair
from kickedqubit.pulses import DeltaKick, Gaussian, Rectangular, Representation, Schedule, pulse_support
from kickedqubit.su2 import PauliAxis
from kickedqubit.units import delta_e_from_ev, preset_2s2p, rabi_period


def test_closed_forms_trivial_points():
    assert p2_ordered(0.0, 1.7) == 0.0
    assert p2_nto(0.0, 1.7) == 0.0
    assert p2_ordered(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert p2_nto(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert p2_ordered(0.5, math.pi / 2) == pytest.approx(0.25, abs=1e-15)
    assert p2_nto(0.5, math.pi) == pytest.approx(1.0, abs=1e-15)


def test_epsilon_domain_enforced():
    with pytest.raises(ValueError):
        p2_ordered(1.2, 0.1)
    with pytest.raises(ValueError):
        p2_nto(-1.2, 0.1)
    for f in (p2_ordered, p2_nto):
        for eps, phi in ((math.nan, 0.1), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                f(eps, phi)


def test_closed_forms_match_pair_propagators():
    # eps = sin(dE t_minus / 2), phi = 2 alpha: the scalar forms must agree
    # with |U21|^2 of the matrix propagators.
    rng = np.random.default_rng(99)
    for _ in range(30):
        delta_e = rng.uniform(0.2, 2.0)
        alpha = rng.uniform(-1.5, 1.5)
        t1 = rng.uniform(-1.0, 1.0)
        t2 = t1 + rng.uniform(0.0, 3.0)
        eps = math.sin(0.5 * delta_e * (t2 - t1))
        phi = 2.0 * alpha
        assert p2_ordered(eps, phi) == pytest.approx(
            abs(opposite_kick_pair(delta_e, alpha, t1, t2)[1, 0]) ** 2, abs=1e-12
        )
        assert p2_nto(eps, phi) == pytest.approx(
            abs(nto_opposite_pair(delta_e, alpha, t1, t2)[1, 0]) ** 2, abs=1e-12
        )


def test_ordering_never_helps_on_concave_domain():
    # For 0 < eps < 1 and 0 < phi <= pi/2 the chord inequality
    # eps sin(phi) <= sin(eps phi) gives p2_ordered <= p2_nto.
    for eps in np.linspace(0.05, 0.95, 10):
        for phi in np.linspace(0.05, math.pi / 2, 10):
            assert p2_ordered(eps, phi) <= p2_nto(eps, phi) + 1e-15


def test_surface_point_single_origin():
    pts = ordering_difference_surface([0.0], [0.0])
    assert len(pts) == 1
    assert pts[0].difference == 0.0


def test_surface_axes_vanish_exactly():
    eps_grid, phi_grid = default_surface_grids()
    pts = ordering_difference_surface(eps_grid, phi_grid)
    for p in pts:
        if p.epsilon == 0.0 or p.phi == 0.0:
            assert p.difference == 0.0


def test_surface_has_both_signs():
    eps_grid, phi_grid = default_surface_grids()
    diffs = [p.difference for p in ordering_difference_surface(eps_grid, phi_grid)]
    assert min(diffs) < 0.0
    assert max(diffs) > 0.0


def test_surface_sign_oscillates_along_phi():
    # Near eps = 1 the difference changes sign repeatedly as phi grows.
    _, phi_grid = default_surface_grids()
    diffs = [p.difference for p in ordering_difference_surface([0.96], phi_grid)]
    signs = [d > 0 for d in diffs if abs(d) > 1e-6]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips >= 2


def test_surface_row_major_order():
    pts = ordering_difference_surface([0.1, 0.2], [0.0, 1.0, 2.0])
    assert [(p.epsilon, p.phi) for p in pts] == [
        (0.1, 0.0),
        (0.1, 1.0),
        (0.1, 2.0),
        (0.2, 0.0),
        (0.2, 1.0),
        (0.2, 2.0),
    ]


def test_surface_grid_above_the_record_limit_is_refused_before_any_point(monkeypatch):
    monkeypatch.setattr(diagnostics, "MAX_RECORDS", 6)
    assert len(ordering_difference_surface([0.1, 0.2], [0.0, 1.0, 2.0])) == 6
    monkeypatch.setattr(diagnostics, "SurfacePoint", None)
    with pytest.raises(ValueError, match="3 x 3 surface points exceed the 6 record limit"):
        ordering_difference_surface([0.1, 0.2, 0.3], [0.0, 1.0, 2.0])


def test_classify_regime_table():
    assert classify_regime(0.01, 0.01) is MapRegime.KICKED_PERTURBATIVE
    assert classify_regime(100.0, 100.0) is MapRegime.ADIABATIC
    assert classify_regime(0.01, 100.0) is MapRegime.KICKED_ADIABATIC
    assert classify_regime(100.0, 0.01) is MapRegime.PERTURBATIVE
    assert classify_regime(2.0 * math.pi, 2.0 * math.pi) is MapRegime.INTERMEDIATE
    assert classify_regime(0.01, 2.0 * math.pi) is MapRegime.INTERMEDIATE


def test_classify_regime_rejects_negative():
    with pytest.raises(ValueError):
        classify_regime(-0.1, 1.0)
    for split, strength in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            classify_regime(split, strength)


def test_classify_regime_deterministic_and_total():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = rng.uniform(0, 50, size=2)
        assert classify_regime(x, y) is classify_regime(x, y)


def test_kick_limit_scan_validates_ladder():
    with pytest.raises(ValueError, match="descending"):
        kick_limit_scan(1.0, 0.5, 10.0, [1.0, 2.0])
    with pytest.raises(ValueError, match="positive"):
        kick_limit_scan(1.0, 0.5, 10.0, [1.0, -0.5])


def test_kick_limit_scan_rows():
    delta_e = delta_e_from_ev(4.37e-6)
    period = rabi_period(delta_e)
    taus = [period / 32, period / 64, period / 128]
    rows = kick_limit_scan(delta_e, math.pi / 2, 150.0, taus)
    assert [r.tau for r in rows] == taus
    errors = [abs(r.p2_rk4_ordered - 1.0) for r in rows]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    # interaction-picture NTO depends only on dE tau / 2
    for r in rows:
        expected = math.sin(math.pi * math.exp(-((0.5 * delta_e * r.tau) ** 2)) / 2) ** 2
        assert r.p2_nto_interaction == pytest.approx(expected, abs=1e-9)


def test_interaction_nto_independent_of_window():
    # Doubling the observation window must leave the interaction-picture NTO
    # value untouched once the pulse is inside.
    from kickedqubit.propagators import nto_propagator
    from kickedqubit.pulses import Gaussian, Representation, Schedule

    delta_e = 0.7
    s1 = Schedule(delta_e, (Gaussian(0.9, 5.0, 0.4),), 0.0, 10.0)
    s2 = Schedule(delta_e, (Gaussian(0.9, 5.0, 0.4),), 0.0, 20.0)
    p1 = abs(nto_propagator(s1, Representation.INTERACTION)[1, 0]) ** 2
    p2 = abs(nto_propagator(s2, Representation.INTERACTION)[1, 0]) ** 2
    assert p1 == pytest.approx(p2, abs=1e-12)


def test_observation_scan_grid_validation(monkeypatch):
    # Times out of order, or before t0 = 0, are refused by Schedule.observation_times.
    with pytest.raises(ValueError, match="ascend strictly"):
        observation_time_scan(1.0, 0.5, 10.0, 1.0, [30.0, 20.0])
    with pytest.raises(ValueError, match="beyond"):
        observation_time_scan(1.0, 0.5, 10.0, 1.0, [5.0, 20.0])
    with pytest.raises(ValueError, match="ascend strictly"):
        observation_time_scan(1.0, 0.5, -5.0, 2.0, [-1.0, 2.0])
    assert observation_time_scan(1.0, 0.5, 10.0, 1.0, []) == []
    # A grid longer than the record limit is refused before the run.
    monkeypatch.setattr(ode, "MAX_RECORDS", 3)
    monkeypatch.setattr(ode, "evolve", lambda *args: pytest.fail("evolve ran"))
    with pytest.raises(ValueError, match="4 observation times exceed the 3 record limit"):
        observation_time_scan(1.0, 0.5, 10.0, 1.0, [20.0, 30.0, 40.0, 50.0])


def test_observation_scan_columns():
    delta_e = delta_e_from_ev(4.37e-6)
    period = rabi_period(delta_e)
    tau, t_k = 9.46, 150.0
    grid = np.linspace(t_k + 10 * tau, t_k + 2.0 * period, 40)
    rows = observation_time_scan(delta_e, math.pi / 2, t_k, tau, grid)
    ordered = [r.p2_ordered for r in rows]
    interaction = [r.p2_nto_interaction for r in rows]
    schrod = [r.p2_nto_schrodinger for r in rows]
    # ordered column is already at its plateau just past the pulse
    assert max(ordered) - min(ordered) == 0.0
    # interaction-picture NTO constant after the support
    assert max(interaction) - min(interaction) < 1e-10
    # Schrodinger NTO damps: the tail is well below the early values
    assert schrod[-1] < 0.5 * max(schrod)


@pytest.mark.parametrize("rep", list(Representation), ids=lambda rep: rep.value)
def test_observation_scan_nto_is_the_truncated_schedule_route(rep):
    # Times inside the support [-1, 5], which overhangs t0 = 0, at its end and beyond it. The oracle
    # builds one truncated Schedule and runs one nto_propagator per time.
    delta_e, alpha, t_k, tau = 1.3, 0.9, 2.0, 0.5
    grid = [2.2, 2.5, 3.4, 5.0, 5.5, 9.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s = Schedule(delta_e, (Gaussian(alpha, t_k, tau),), 0.0, grid[-1])
    want = truncated_nto_reference(s, rep, grid)
    got = [getattr(r, f"p2_nto_{rep.value}") for r in observation_time_scan(delta_e, alpha, t_k, tau, grid)]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15


def cli_default_grid(delta_e, t_k):
    return np.linspace(t_k, t_k + 3.0 * rabi_period(delta_e), 200)[1:]


def truncated_ordered(delta_e, alpha, t_k, tau, tf):
    """The scan's former ordered route, kept as an oracle: its own propagate from t0 = 0 to min(tf, support end)."""
    pulse = Gaussian(alpha, t_k, tau)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # wide pulses overhang t0 = 0
        s = Schedule(delta_e, (pulse,), 0.0, min(tf, pulse_support(pulse)[1]))
    return float(abs(propagate(s)[1, 0]) ** 2)


@pytest.mark.parametrize("tau", [4.73, 18.92, 200.0])
def test_observation_scan_ordered_column_against_truncated_propagate(tau):
    t_k = 150.0
    delta_e = preset_2s2p(9.46).delta_e
    rows = observation_time_scan(delta_e, math.pi / 2, t_k, tau, cli_default_grid(delta_e, t_k))
    for r in rows[::20]:
        assert abs(r.p2_ordered - truncated_ordered(delta_e, math.pi / 2, t_k, tau, r.tf)) <= 1e-10


def test_observation_scan_runs_one_trajectory(monkeypatch, capsys):
    # Every route to the (ordered, NTO, NTO) triple is one call of transfer_probabilities: one propagate, which
    # runs one evolve, and one nto_propagator per picture, per observation-time scan, per compare-nto and per
    # kick-limit rung.
    calls = []
    for module, name in ((ode, "evolve"), (diagnostics, "propagate"), (diagnostics, "nto_propagator"),
                         (diagnostics, "transfer_probabilities"), (cli, "transfer_probabilities")):

        def counting(*args, name=name, original=getattr(module, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    t_k = 150.0
    delta_e = preset_2s2p(9.46).delta_e
    observation_time_scan(delta_e, math.pi / 2, t_k, 9.46, cli_default_grid(delta_e, t_k))
    route = ["transfer_probabilities", "propagate", "evolve", "nto_propagator", "nto_propagator"]
    assert calls == route
    for argv, routes in ((["compare-nto", "--preset", "2s2p"], 1),
                         (["compare-nto", "--delta-e", "1", "--tf", "3", "--pulses", "kick:0.3:1; kick:-0.3:2"], 1),
                         (["kick-limit", "--preset", "2s2p", "--taus", "40 20 10"], 3)):
        calls.clear()
        assert cli.main(argv) == 0
        assert calls == route * routes, argv
    capsys.readouterr()


ROUTE_SCHEDULES = [
    Schedule(1.2, (DeltaKick(0.3, 1.0), DeltaKick(-0.3, 2.0, PauliAxis.Y)), 0.0, 3.0),
    Schedule(1.2, (DeltaKick(0.3, 1.0), DeltaKick(0.5, 3.0)), 0.0, 3.0),  # a kick at tf
    preset_2s2p(9.46),
    Schedule(0.8, (Gaussian(0.9, 2.0, 0.3), Rectangular(0.6, 4.5, 1.5, PauliAxis.Y), DeltaKick(0.2, 5.0)), 0.1, 7.0),
]


@pytest.mark.parametrize("s", ROUTE_SCHEDULES)
def test_route_at_tf_is_propagate_and_nto_propagator(s):
    # Bit for bit the former formula of compare-nto and kick-limit.
    want = (
        float(abs(propagate(s)[1, 0]) ** 2),
        float(abs(nto_propagator(s, Representation.INTERACTION)[1, 0]) ** 2),
        float(abs(nto_propagator(s, Representation.SCHRODINGER)[1, 0]) ** 2),
    )
    assert transfer_probabilities(s, s.tf) == want


@pytest.mark.parametrize("s", ROUTE_SCHEDULES)
def test_route_on_a_grid_ends_on_the_value_at_tf(s):
    grid = np.linspace(s.t0, s.tf, 9)[1:]
    rows = transfer_probabilities(s, grid)
    assert len(rows) == 8
    ordered, *nto = transfer_probabilities(s, s.tf)
    # The times cut the RK4 step grid, which moves the ordered value within the integration error.
    assert abs(rows[-1][0] - ordered) <= 1e-10
    np.testing.assert_allclose(rows[-1][1:], nto, rtol=0, atol=1e-15)


@pytest.mark.parametrize("times", [[], [0.0, 1.0], [1.0, 3.5], [2.0, 1.0], [1.0, 1.0], [math.nan]])
def test_route_refuses_times_outside_the_window_or_out_of_order(times):
    with pytest.raises(ValueError, match="ascend strictly"):
        transfer_probabilities(Schedule(1.0, (DeltaKick(0.3, 1.0),), 0.0, 3.0), times)


def test_observation_scan_reads_rows_by_time(monkeypatch):
    # Recording every 7th step as well leaves the rows at the observation times unchanged.
    t_k = 150.0
    delta_e = preset_2s2p(9.46).delta_e
    grid = cli_default_grid(delta_e, t_k)[::10]
    expected = observation_time_scan(delta_e, math.pi / 2, t_k, 9.46, grid)
    monkeypatch.setattr(ode, "IntegratorConfig", lambda dt, rep, every: IntegratorConfig(dt, rep, 7))
    assert observation_time_scan(delta_e, math.pi / 2, t_k, 9.46, grid) == expected


def test_preset_round_trip():
    s = preset_2s2p(9.46)
    assert s.delta_e == pytest.approx(4.37e-6 / 6.58211957e-4)
    assert rabi_period(s.delta_e) == pytest.approx(946.4, abs=0.1)
    assert s.pulses[0].t_k == 150.0


def test_scans_emit_no_warnings():
    # Pulse tails that overhang t0 = 0 are silenced where the schedule is built,
    # and the default step is half the dt-warning threshold, so nothing may warn.
    delta_e, t_k = delta_e_from_ev(4.37e-6), 150.0
    period = rabi_period(delta_e)
    ladder = [period / 2**k for k in range(1, 9)]  # the CLI default; wide rungs overhang t0
    grid = np.linspace(t_k, t_k + 3.0 * period, 12)[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(kick_limit_scan(delta_e, math.pi / 2, t_k, ladder)) == 8
        for tau in (4.73, 200.0):  # 200 overhangs t0 = 0
            assert len(observation_time_scan(delta_e, math.pi / 2, t_k, tau, grid)) == 11


def test_obs_time_and_kick_limit_run_no_quadrature(monkeypatch):
    # Every NTO average of these scans is closed-form: on the CLI's default
    # obs-time grid, where the window cuts the Gaussian (at tau = 200 also at
    # t0 = 0), and on the default kick-limit ladder. Beyond the support the
    # interaction-picture NTO gives the same value at every observation time.
    from kickedqubit.quadrature import adaptive_gauss_legendre

    calls = []

    def counting(f, a, b, *rest):
        calls.append((a, b))
        return adaptive_gauss_legendre(f, a, b, *rest)

    bound = [
        name
        for name, module in sorted(sys.modules.items())
        if name.startswith("kickedqubit")
        and getattr(module, "adaptive_gauss_legendre", None) is adaptive_gauss_legendre
    ]
    assert "kickedqubit.quadrature" in bound
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "adaptive_gauss_legendre", counting)

    tau, t_k = 9.46, 150.0
    delta_e = preset_2s2p(tau).delta_e
    period = rabi_period(delta_e)
    grid = np.linspace(t_k, t_k + 3.0 * period, 200)[1:]
    rows = observation_time_scan(delta_e, math.pi / 2, t_k, tau, grid)
    observation_time_scan(delta_e, math.pi / 2, t_k, 200.0, grid)
    kick_limit_scan(delta_e, math.pi / 2, t_k, [period / 2**k for k in range(1, 9)])
    assert calls == []
    support_end = t_k + 6.0 * tau
    beyond = [r.p2_nto_interaction for r in rows if r.tf >= support_end]
    assert max(beyond) - min(beyond) < 1e-14
