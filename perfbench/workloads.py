"""Seeded job lists for the four benchmark workloads.

A job is one ``kickedqubit.cli.main(argv)`` invocation plus the parameters
the output checks need. ``obs_scan``, ``rk4_trajectory`` and ``dyson_smooth``
draw each job from a small fixed pool of variants, so that reference values
recorded once (``reference.json``) cover every input a seed can produce; the
variants of one slot differ by a few percent, which keeps the cost of a pass
nearly the same across seeds. ``closed_form`` draws its inputs freely from the
seed, because every one of its outputs has an exact independent check.

Why each workload exists:

* ``obs_scan`` -- ``obs-time`` spends ~96% of its time in per-point
  interaction-picture NTO quadrature (few long ``adaptive_simpson`` calls);
  a closed-form or cumulative NTO shows here.
* ``rk4_trajectory`` -- ``evolve`` in both pictures with full recording beside
  final-only runs, ``kick-limit`` and smooth ``compare-nto``; the time is in
  ``ode`` plus pointwise ``pulses``, so vectorised RK4 shows here.
* ``dyson_smooth`` -- ``pert2`` on smooth schedules: many tiny quadrature
  calls nested under perturbation's own Simpson, the opposite use of
  quadrature from ``obs_scan``.
* ``closed_form`` -- ~160 short closed-form jobs with no RK4 and no
  quadrature: the bypass for RK4/NTO work, and the workload for CLI and
  per-invocation overhead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

ALPHA_DEFAULT = math.pi / 2


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _num(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------------------ obs_scan

OBS_TAUS = (4.73, 9.46, 14.19, 18.92)
OBS_JITTER = (0.99, 1.0, 1.01)


def _obs_job(tau: float) -> Job:
    argv = ("obs-time", "--preset", "2s2p", "--tau", _num(tau))
    return Job("obs", argv, {"tau": tau, "alpha": ALPHA_DEFAULT})


def _obs_slots():
    return [[_obs_job(round(base * f, 6)) for f in OBS_JITTER] for base in OBS_TAUS]


# ------------------------------------------------------------ rk4_trajectory

TAU_RK4 = 9.46
RK4_ALPHAS = tuple(ALPHA_DEFAULT * f for f in (0.9, 1.0, 1.1))
RK4_ROUNDS = 2  # every job kind runs twice per pass


def _rk4_job(kind: str, alpha: float) -> Job:
    a = _num(alpha)
    params = {"alpha": alpha, "tau": TAU_RK4}
    preset = ("--preset", "2s2p", "--alpha", a)
    if kind.startswith("evolve"):
        _, rep, recording = kind.split(":")
        argv = ("evolve", *preset, "--tau", _num(TAU_RK4), "--representation", rep)
        if recording == "final":
            argv += ("--record-every", "1000")
        return Job("evolve", argv, dict(params, representation=rep, full=recording == "full"))
    if kind == "kick-limit":
        return Job("kick_limit", ("kick-limit", *preset), params)
    return Job("compare_smooth", ("compare-nto", *preset, "--tau", _num(TAU_RK4)), params)


RK4_KINDS = (
    "evolve:schrodinger:full",
    "evolve:interaction:full",
    "evolve:schrodinger:final",
    "evolve:interaction:final",
    "kick-limit",
    "compare-nto",
)


def _rk4_slots():
    return [
        [_rk4_job(kind, a) for a in RK4_ALPHAS] for kind in RK4_KINDS for _ in range(RK4_ROUNDS)
    ]


# -------------------------------------------------------------- dyson_smooth

# Pulse shapes per slot ("g" Gaussian, "r" rectangular), each list twice with
# other base schedules; every slot has DYSON_VARIANTS jittered copies of its
# base schedule.
DYSON_SHAPES = (
    "g", "g", "g", "g", "r", "r",
    "gg", "gg", "gr", "gr", "rg", "rr",
    "ggr", "grg", "rgg", "ggg",
) * 2
DYSON_VARIANTS = 3
DYSON_DELTA_E = 1.0


def _dyson_base(slot: int, shapes: str) -> list[dict]:
    rng = random.Random(f"dyson-base-{slot}")
    pulses = []
    t = 0.0
    for shape in shapes:
        alpha = rng.uniform(0.2, 0.8)
        axis = rng.choice("xy")
        if shape == "g":
            tau = rng.uniform(0.5, 2.0)
            start = t + rng.uniform(0.0, 2.0)
            pulses.append({"kind": "gaussian", "alpha": alpha, "tau": tau, "axis": axis,
                           "at": start + 6.0 * tau})
            t = start + 12.0 * tau * rng.uniform(0.6, 1.0)  # supports may overlap
        else:
            tau = rng.uniform(1.0, 4.0)
            start = t + rng.uniform(0.0, 2.0)
            pulses.append({"kind": "rect", "alpha": alpha, "tau": tau, "axis": axis, "at": start})
            t = start + tau * rng.uniform(0.5, 1.0)
    return pulses


def _dyson_job(pulses: list[dict]) -> Job:
    end = max(p["at"] + (6.0 if p["kind"] == "gaussian" else 1.0) * p["tau"] for p in pulses)
    tf = round(end + 1.0, 6)
    spec = ";".join(
        f"{p['kind']}:{_num(p['alpha'])}:{_num(p['at'])}:{_num(p['tau'])}:{p['axis']}" for p in pulses
    )
    argv = ("pert2", "--delta-e", _num(DYSON_DELTA_E), "--t0", "0.0", "--tf", _num(tf),
            "--pulses", spec)
    return Job("pert2_smooth", argv, {"delta_e": DYSON_DELTA_E, "tf": tf, "pulses": pulses})


def _dyson_slots():
    slots = []
    for slot, shapes in enumerate(DYSON_SHAPES):
        base = _dyson_base(slot, shapes)
        variants = []
        for v in range(DYSON_VARIANTS):
            f = 1.0 + 0.01 * (v - 1)
            shift = 0.05 * v  # later, never earlier: supports stay inside [0, tf]
            pulses = [
                dict(p, alpha=round(p["alpha"] * f, 6), tau=round(p["tau"], 6),
                     at=round(p["at"] + shift, 6))
                for p in base
            ]
            variants.append(_dyson_job(pulses))
        slots.append(variants)
    return slots


# --------------------------------------------------------------- closed_form

SURFACE_JOBS = 16
SURFACE_SHAPE = (24, 80)
KICK_LADDER = (2, 4, 8, 12, 16, 24, 32, 48, 64, 80, 96, 120)
KICK_JOBS = 24  # per command (compare-nto and pert2): the ladder twice
# Over half the jobs are map-classify, so the median job is one of them, pure
# per-invocation CLI cost, rather than whichever job sits at a cluster edge.
CLASSIFY_JOBS = 96
KICK_WINDOW = 10.0


def _kick_job(command: str, rng: random.Random, n: int) -> Job:
    delta_e = round(rng.uniform(0.5, 2.0), 6)
    times = sorted({round(rng.uniform(0.05, 0.95) * KICK_WINDOW, 6) for _ in range(n)})
    while len(times) < n:  # rounding merged two times; draw again
        times = sorted(set(times) | {round(rng.uniform(0.05, 0.95) * KICK_WINDOW, 6)})
    kicks = [(round(rng.uniform(-0.3, 0.3), 6), t, rng.choice("xy")) for t in times]
    spec = ";".join(f"kick:{_num(a)}:{_num(t)}:{ax}" for a, t, ax in kicks)
    argv = (command, "--delta-e", _num(delta_e), "--t0", "0.0", "--tf", _num(KICK_WINDOW),
            "--pulses", spec)
    kind = "compare_kicks" if command == "compare-nto" else "pert2_kicks"
    return Job(kind, argv, {"delta_e": delta_e, "tf": KICK_WINDOW, "kicks": kicks})


def _closed_form_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    n_eps, n_phi = SURFACE_SHAPE
    for _ in range(SURFACE_JOBS):
        eps = sorted(round(rng.uniform(0.0, 1.0), 6) for _ in range(n_eps))
        phi = sorted(round(rng.uniform(0.0, 2.0 * math.pi), 6) for _ in range(n_phi))
        argv = ("sweep-surface", "--eps-grid", ",".join(map(_num, eps)),
                "--phi-grid", ",".join(map(_num, phi)))
        jobs.append(Job("surface", argv, {"eps": eps, "phi": phi}))
    for command in ("compare-nto", "pert2"):
        for i in range(KICK_JOBS):
            jobs.append(_kick_job(command, rng, KICK_LADDER[i % len(KICK_LADDER)]))
    for _ in range(CLASSIFY_JOBS):
        split = round(rng.uniform(0.0, 40.0), 6)
        strength = round(rng.uniform(0.0, 40.0), 6)
        argv = ("map-classify", "--split-phase", _num(split), "--strength-phase", _num(strength))
        jobs.append(Job("classify", argv, {"split": split, "strength": strength}))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ registry

POOLED = {
    "obs_scan": _obs_slots,
    "rk4_trajectory": _rk4_slots,
    "dyson_smooth": _dyson_slots,
}
WORKLOADS = ("obs_scan", "rk4_trajectory", "dyson_smooth", "closed_form")


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for ``seed``: the same seed, the same jobs."""
    rng = random.Random(f"{workload}-{seed}")
    if workload == "closed_form":
        return _closed_form_jobs(rng)
    jobs = [rng.choice(variants) for variants in POOLED[workload]()]
    rng.shuffle(jobs)
    return jobs


def reference_pool() -> list[Job]:
    """Every job a seed can draw in the pooled workloads, without repeats."""
    seen = {}
    for slots in POOLED.values():
        for variants in slots():
            for job in variants:
                seen.setdefault(job.key, job)
    return list(seen.values())
