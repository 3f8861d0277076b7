"""Properties of schedules that mix delta kicks with smooth pulses.

``evolve`` (and so ``propagate``) and ``dyson_second_order`` sweep one time
axis in which kicks are events. A mixed schedule is checked against the same
schedule with every kick widened into a narrow Gaussian, which has no events,
the propagator against the truncated Dyson series and against a second-order
Magnus (exponential midpoint) product, the Schrodinger-picture trajectory
against the interaction-picture one, the batched ``evolve`` against RK4
taken one step at a time, and its cuts against kicks of zero area.
"""

import dataclasses
import math
import warnings
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kickedqubit.ode import IntegratorConfig, default_step, evolve, propagate
from kickedqubit.perturbation import TOL_QUAD2, dyson_second_order
from kickedqubit.propagators import change_representation, kick_sequence, nto_propagator
from kickedqubit.pulses import DeltaKick, Gaussian, Rectangular, Representation, Schedule, pulse_support
from kickedqubit.su2 import SIGMA_Z, PauliAxis, exp_minus_i_generator
from oracles import coupling_sum

TF = 3.0
AXES = st.sampled_from((PauliAxis.X, PauliAxis.Y))


def signed(lo, hi):
    return st.tuples(st.floats(lo, hi), st.sampled_from((-1.0, 1.0))).map(lambda v: v[0] * v[1])


# Every support lies in [0.3, 2.7], so a kick widened to a Gaussian of width
# up to 0.04 stays inside the window [0, 3] wherever it sits on a support.
GAUSSIANS = st.builds(Gaussian, signed(0.2, 0.5), st.floats(1.2, 1.8), st.floats(0.1, 0.15), AXES)
RECTANGLES = st.builds(Rectangular, signed(0.2, 0.5), st.floats(0.3, 1.5), st.floats(0.3, 1.0), AXES)


@st.composite
def mixed_schedules(draw):
    """1-2 smooth pulses, a kick on any axis inside the first one's support and maybe one on a support end."""
    pulses = draw(st.lists(GAUSSIANS | RECTANGLES, min_size=1, max_size=2))
    lo, hi = pulse_support(pulses[0])
    times = [lo + draw(st.floats(0.1, 0.9)) * (hi - lo)]
    if draw(st.booleans()):
        times.append(draw(st.sampled_from([e for p in pulses for e in pulse_support(p)])))
        # Widened kicks closer than this overlap and converge only once tau resolves the gap.
        assume(abs(times[1] - times[0]) >= 0.3)
    kicks = [DeltaKick(draw(signed(0.1, 0.4)), t, draw(st.sampled_from(PauliAxis))) for t in times]
    return Schedule(draw(st.floats(0.5, 2.0)), tuple(pulses + kicks), 0.0, TF)


def widened(s: Schedule, tau: float) -> Schedule:
    """``s`` with every kick replaced by a Gaussian of the same area, width ``tau``."""
    pulses = [Gaussian(p.alpha, p.t_k, tau, p.axis) if isinstance(p, DeltaKick) else p for p in s.pulses]
    return Schedule(s.delta_e, tuple(pulses), s.t0, s.tf)


def scaled(s: Schedule, factor: float) -> Schedule:
    """``s`` with every pulse area multiplied by ``factor``."""
    pulses = [dataclasses.replace(p, alpha=factor * p.alpha) for p in s.pulses]
    return Schedule(s.delta_e, tuple(pulses), s.t0, s.tf)


def dyson_pieces(s: Schedule) -> np.ndarray:
    b = dyson_second_order(s)
    return np.stack((b.first, b.second_ordered, b.commutator_correction))


def smearing_bound(s: Schedule) -> float:
    """Sum |alpha_k| (delta_e + 2 max|V|) / sqrt(pi): times tau, it bounds what widening the kicks costs.

    Over a Gaussian kick of width tau, |t - t_k| averages tau / sqrt(pi). Meanwhile
    the rotating axis turns at rate delta_e, and the kick fails to commute with V.
    """
    peak = sum(
        abs(p.alpha) / (math.sqrt(math.pi) * p.tau if isinstance(p, Gaussian) else p.tau)
        for p in s.smooth_pulses()
    )
    return sum(abs(k.alpha) for k in s.kicks()) * (abs(s.delta_e) + 2.0 * peak) / math.sqrt(math.pi)


@settings(max_examples=10, deadline=None)
@given(mixed_schedules())
def test_dyson_narrow_gaussians_converge_to_kicks(s):
    # The widening error is linear in tau, about 10x per decade once tau is
    # small enough that the tau^2 term cannot cancel it. A z kick where V is
    # negligible commutes with everything near it, so widening it costs nothing
    # and both errors sit at the quadrature floor, below TOL_QUAD2.
    kicked = dyson_pieces(s)
    coarse, fine = (np.max(np.abs(dyson_pieces(widened(s, tau)) - kicked)) for tau in (1e-3, 1e-4))
    assert fine <= max(coarse / 5.0, TOL_QUAD2)


@settings(max_examples=3, deadline=None)
@given(mixed_schedules())
def test_propagate_narrow_gaussians_converge_to_kicks(s):
    # RK4 at widths fine enough for a clean ratio is slow, so the error is held
    # to its linear bound instead (0.2 of it at most over 80 draws).
    kicked = propagate(s)
    for tau in (0.04, 0.02):
        assert np.max(np.abs(propagate(widened(s, tau)) - kicked)) <= smearing_bound(s) * tau


@settings(max_examples=4, deadline=None)
@given(mixed_schedules())
@example(Schedule(2.0, (Rectangular(-0.5, 1.0, 0.375, PauliAxis.X), DeltaKick(0.3359375, 1.28125, PauliAxis.X),
                        Gaussian(-0.21875, 1.5625, 0.125, PauliAxis.Y)), 0.0, TF))
def test_mixed_second_order_against_propagate(s):
    # The truncated series misses U by O(alpha^3): halving every area cuts the
    # residual about 8x once the fourth-order term is negligible. At the drawn
    # areas it need not be: on the pinned schedule the ratio is 10.33 at scales
    # (1, 1/2), then 7.62 at (1/2, 1/4) and 7.91 at (1/4, 1/8).
    residuals = []
    for factor in (0.5, 0.25):
        run = scaled(s, factor)
        residuals.append(np.max(np.abs(propagate(run) - dyson_second_order(run).through_second_order())))
    assert 6.0 <= residuals[0] / residuals[1] <= 10.0


@settings(max_examples=10, deadline=None)
@given(mixed_schedules())
def test_mixed_identity_holds_and_propagate_warns_nothing(s):
    assert dyson_second_order(s).identity_residual() <= TOL_QUAD2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        propagate(s)


def observation_grid(s: Schedule) -> np.ndarray:
    """The kick times and support ends of ``s`` inside (t0, tf], and tf."""
    ends = [t for p in s.smooth_pulses() for t in pulse_support(p)]
    return np.array(sorted({t for t in [*(k.t_k for k in s.kicks()), *ends, s.tf] if s.t0 < t <= s.tf}))


@settings(max_examples=15, deadline=None)
@given(mixed_schedules())
def test_nto_propagator_on_a_grid_is_the_truncated_schedule(s):
    # Each row is the NTO propagator of the schedule cut at its time, a kick at the cut included.
    grid = observation_grid(s)
    for rep in Representation:
        rows = nto_propagator(s, rep, grid)
        assert rows.shape == grid.shape + (2, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # truncation clips pulse support by design
            want = [nto_propagator(Schedule(s.delta_e, s.pulses, s.t0, t), rep) for t in grid]
        assert np.max(np.abs(rows - want)) <= 1e-15


@settings(max_examples=4, deadline=None)
@given(mixed_schedules())
def test_propagate_on_a_grid_ends_on_the_value_at_tf(s):
    # The times cut the RK4 step grid, which moves the last row within the integration error.
    grid = observation_grid(s)
    rows = propagate(s, grid)
    assert rows.shape == grid.shape + (2, 2)
    assert np.max(np.abs(rows[-1] - propagate(s))) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(mixed_schedules())
def test_evolve_agrees_across_pictures(s):
    # Kicks act unrotated in the Schrodinger picture and rotated in the
    # interaction picture; the free evolution between them maps one onto the other.
    dt = default_step(s)
    finals = {rep: evolve(s, IntegratorConfig(dt, rep, 10**6)).propagators[-1] for rep in Representation}
    converted = change_representation(
        finals[Representation.SCHRODINGER], s.delta_e, s.tf, s.t0, Representation.INTERACTION
    )
    assert np.max(np.abs(converted - finals[Representation.INTERACTION])) <= 1e-8


def cuts(s: Schedule) -> tuple[list[float], dict]:
    """Where evolve cuts [t0, tf] (kick times and Rectangular edges inside the window), and the kicks by time."""
    kicks = {t: tuple(group) for t, group in groupby(s.kicks(), key=lambda kick: kick.t_k)}
    edges = {t for p in s.pulses if isinstance(p, Rectangular) for t in pulse_support(p)}
    return [s.t0, *sorted(t for t in edges | kicks.keys() if s.t0 < t < s.tf), s.tf], kicks


def per_step_rk4(s: Schedule, cfg: IntegratorConfig) -> tuple[np.ndarray, np.ndarray]:
    """The recorded times and propagators of evolve, taken one RK4 step at a time.

    The same cuts, steps, pointwise samples and records as evolve, with each
    stage applied to U by a 2x2 matrix product. An interaction-picture piece
    that no smooth support overlaps takes no step: its kicks act and its end is recorded.
    """
    bounds, kicks = cuts(s)
    schrodinger = cfg.representation is Representation.SCHRODINGER
    h0 = -0.5 * s.delta_e * SIGMA_Z if schrodinger else 0.0
    frame = 0.0 if schrodinger else s.delta_e
    u = kick_sequence(frame, kicks.get(s.t0, ()))
    times, propagators = [s.t0], [u]
    done = 0
    for a, b in zip(bounds, bounds[1:]):
        active = [p for p in s.smooth_pulses() if pulse_support(p)[0] < b and pulse_support(p)[1] > a]
        n = max(1, math.ceil((b - a) / cfg.dt)) if schrodinger or active else 0
        h = (b - a) / max(n, 1)
        t = a
        for k in range(1, n + 1):
            end = b if k == n else a + k * h
            g0, mid, g1 = (coupling_sum(s.delta_e, active, x, cfg.representation) + h0 for x in (t, t + 0.5 * h, end))
            k1 = -1j * (g0 @ u)
            k2 = -1j * (mid @ (u + 0.5 * h * k1))
            k3 = -1j * (mid @ (u + 0.5 * h * k2))
            k4 = -1j * (g1 @ (u + h * k3))
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = end
            if (done + k) % cfg.record_every == 0 and k < n:
                times.append(end)
                propagators.append(u)
        u = kick_sequence(frame, kicks.get(b, ())) @ u
        times.append(b)
        propagators.append(u)
        done += n
    return np.array(times), np.array(propagators)


@settings(max_examples=20, deadline=None)
@given(mixed_schedules(), st.sampled_from(Representation), st.integers(1, 40))
@example(Schedule(1.0, (DeltaKick(0.3, 1.0), Rectangular(0.4, 2.0, 0.5)), 0.0, TF), Representation.INTERACTION, 3)
def test_evolve_against_per_step_rk4(s, rep, every):
    # A chunk of 7 steps ends inside pieces and inside record blocks.
    cfg = IntegratorConfig(default_step(s), rep, every)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("kickedqubit.ode.CHUNK", 7)
        traj = evolve(s, cfg)
    times, propagators = per_step_rk4(s, cfg)
    assert traj.times.tobytes() == times.tobytes()
    assert np.max(np.abs(traj.propagators - propagators)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(mixed_schedules(), st.integers(1, 40))
def test_evolve_rows_are_quaternions(s, every):
    # Between kicks evolve carries U as its first row and rebuilds the second as
    # (-conj U01, conj U00), so without kicks every row holds the form exactly.
    # A kick acts as a full 2x2 product, which keeps it only to rounding.
    kick_free = Schedule(s.delta_e, s.smooth_pulses(), s.t0, s.tf)
    for rep in Representation:
        for run, tol in ((kick_free, 0.0), (s, 1e-15)):
            u = evolve(run, IntegratorConfig(default_step(run), rep, every)).propagators
            assert np.max(np.abs(u[:, 1, 1] - u[:, 0, 0].conj())) <= tol
            assert np.max(np.abs(u[:, 1, 0] + u[:, 0, 1].conj())) <= tol


@settings(max_examples=20, deadline=None)
@given(mixed_schedules(), st.integers(1, 40), st.lists(st.floats(-0.5, TF + 0.5), max_size=4), st.booleans())
def test_cuts_are_zero_area_kicks(s, every, drawn, ends):
    # A cut records U where a kick of zero area would act as the identity: the same pieces, steps and rows.
    # Cuts outside (t0, tf) are ignored; a zero-area kick at t0 or tf still acts there, as exp(0).
    cuts = drawn + ([t for p in s.smooth_pulses() for t in pulse_support(p)] + [s.t0, s.tf] if ends else [])
    marked = Schedule(s.delta_e, s.pulses + tuple(DeltaKick(0.0, t) for t in cuts if s.t0 <= t <= s.tf), s.t0, s.tf)
    for rep in Representation:
        cfg = IntegratorConfig(default_step(s), rep, every)
        cut, kicked = evolve(s, cfg, cuts), evolve(marked, cfg)
        assert np.array_equal(cut.times, kicked.times)
        assert np.array_equal(cut.propagators, kicked.propagators)  # -0 and +0 count as equal


def exponential_midpoint(s: Schedule, n: int) -> np.ndarray:
    """Magnus-2 interaction-picture propagator, an oracle independent of RK4.

    Cut where evolve cuts, n equal steps of exp(-i h V_I(t + h/2)) per piece,
    the kicks at each cut.
    """
    bounds, kicks = cuts(s)
    smooth = s.smooth_pulses()
    u = kick_sequence(s.delta_e, kicks.get(s.t0, ()))
    for a, b in zip(bounds, bounds[1:]):
        h = (b - a) / n
        for k in range(n):
            v = coupling_sum(s.delta_e, smooth, a + (k + 0.5) * h, Representation.INTERACTION)
            u = exp_minus_i_generator(v, h) @ u
        u = kick_sequence(s.delta_e, kicks.get(b, ())) @ u
    return u


@settings(max_examples=10, deadline=None)
@given(mixed_schedules())
def test_propagate_against_second_order_magnus(s):
    # The exponential midpoint rule is second order: doubling n cuts its error
    # against RK4 4x (4.00-4.03 over 30 draws; RK4's own error is far smaller).
    # Two equal and opposite pulses leave V identically 0: then both routes are
    # the exact kick product and agree to the bit.
    u = propagate(s)
    coarse, fine = (np.max(np.abs(exponential_midpoint(s, n) - u)) for n in (200, 400))
    assert coarse == fine == 0.0 or 3.5 <= coarse / fine <= 4.5
