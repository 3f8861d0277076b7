"""Output checks for benchmark jobs, each by a route independent of the library.

Every check recomputes what a job's output must contain from the job's own
inputs, with plain ``math``/``numpy`` written here (closed forms, vectorised
kick sums, a direct product of single-kick matrices), or compares against
reference values recorded at a known-good commit (``reference.json``). No
check calls ``kickedqubit``.
"""

from __future__ import annotations

import cmath
import json
import math
import re

import numpy as np

# Physical constants of the 2s-2p preset, restated from the paper's units.
HBAR_EV_PS = 6.58211957e-4
DELTA_E_2S2P = 4.37e-6 / HBAR_EV_PS
PERIOD_2S2P = 2.0 * math.pi / DELTA_E_2S2P
T_K_2S2P = 150.0
GAUSS_WIDTHS = 6.0  # nominal Gaussian support, in widths, on each side

TOL_EXACT = 1e-12  # closed forms evaluated two ways
TOL_NTO_PLATEAU = 1e-10  # interaction NTO beyond the pulse vs sin^2(alpha e^{-(dE tau/2)^2})
TOL_NORM_DRIFT = 1e-8  # RK4 |1 - p1 - p2| on the 2s-2p preset
TOL_QUAD2 = 1e-8  # identity residual for the smooth (quadrature) second order
TOL_KICK_IDENTITY = 1e-13
TOL_FIRST_ORDER = 1e-8  # quadrature first order vs its closed form
TOL_KICK_SUMS = 1e-11
TOL_SURFACE = 1e-14
TOL_REFERENCE = 1e-8  # relative, with an absolute floor of the same size

OBS_HEADER = ["tf", "p2_ordered", "p2_nto_schrodinger", "p2_nto_interaction"]
EVOLVE_HEADER = ["t", "p1", "p2"]
KICK_LIMIT_HEADER = ["tau", "p2_rk4_ordered", "p2_nto_interaction", "p2_nto_schrodinger"]
SURFACE_HEADER = ["epsilon", "phi", "p2_ordered", "p2_nto", "difference"]


# ------------------------------------------------------------------- parsing


def parse_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], dtype=float)
    return header, rows.reshape(len(lines) - 1, len(header))


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(re_, im) for re_, im in row] for row in entries], dtype=complex)


def _flatten(obj) -> list[float]:
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _flatten(obj[k])]
    if isinstance(obj, list):
        return [x for item in obj for x in _flatten(item)]
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [float(obj)]
    return []


def summary(text: str) -> list[float]:
    """Numbers recorded per job in the reference file.

    JSON outputs keep every number. CSV tables keep the row count, each
    column's sum and nine rows spread evenly from first to last.
    """
    if text.startswith("{"):
        return _flatten(json.loads(text))
    _, rows = parse_csv(text)
    n = len(rows)
    picks = sorted({round(i * (n - 1) / 8) for i in range(9)})
    return [float(n), *rows.sum(axis=0).tolist(), *rows[picks].ravel().tolist()]


# ------------------------------------------------------------ closed forms


def offdiag(z: complex) -> np.ndarray:
    """Hermitian [[0, conj z], [z, 0]]: a coupling with (1, 0) entry z."""
    return np.array([[0.0, z.conjugate()], [z, 0.0]], dtype=complex)


def axis_phase(axis: str) -> complex:
    """(1, 0) entry of sigma_x or sigma_y."""
    return 1.0 if axis == "x" else 1j


def gaussian_window_area(alpha, center, tau, lo, hi) -> float:
    """Integral of the Gaussian over [lo, hi] clipped to its nominal support."""
    a = max(lo, center - GAUSS_WIDTHS * tau)
    b = min(hi, center + GAUSS_WIDTHS * tau)
    if b <= a:
        return 0.0
    return 0.5 * alpha * (math.erf((b - center) / tau) - math.erf((a - center) / tau))


def p2_nto_interaction_full_gaussian(alpha, tau, delta_e) -> float:
    """NTO transfer for a Gaussian wholly inside the window (Fourier transform)."""
    return math.sin(alpha * math.exp(-((delta_e * tau / 2.0) ** 2))) ** 2


def p2_nto_schrodinger(area: complex, delta_e: float, duration: float) -> float:
    """|U21|^2 of exp(-i(area sigma - dE T/2 sigma_z)); ``area`` is the (1,0) entry."""
    half = 0.5 * delta_e * duration
    c = math.sqrt(abs(area) ** 2 + half * half)
    return 0.0 if c == 0.0 else math.sin(c) ** 2 * abs(area) ** 2 / c**2


def first_order_area(pulse: dict, delta_e: float) -> complex:
    """(1, 0) entry of the integral of the rotating-frame coupling of one pulse."""
    phase = axis_phase(pulse["axis"])
    alpha, tau, at = pulse["alpha"], pulse["tau"], pulse["at"]
    if pulse["kind"] == "gaussian":
        w = alpha * math.exp(-((delta_e * tau / 2.0) ** 2)) * cmath.exp(1j * delta_e * at)
    else:
        b = at + tau
        w = alpha / tau * (cmath.exp(1j * delta_e * b) - cmath.exp(1j * delta_e * at)) / (1j * delta_e)
    return phase * w


def kick_matrices(kicks, delta_e) -> np.ndarray:
    """alpha_k times the rotated axis matrix of every kick, shape (n, 2, 2)."""
    return np.array(
        [a * offdiag(axis_phase(ax) * cmath.exp(1j * delta_e * t)) for a, t, ax in kicks]
    )


def kick_product(kicks, delta_e) -> np.ndarray:
    """Ordered product of exact single-kick factors cos(a) I - i sin(a) R."""
    u = np.eye(2, dtype=complex)
    for a, t, ax in kicks:
        r = offdiag(axis_phase(ax) * cmath.exp(1j * delta_e * t))
        u = (math.cos(a) * np.eye(2) - 1j * math.sin(a) * r) @ u
    return u


def classify(split: float, strength: float) -> str:
    small, large = 0.2 * 2.0 * math.pi, 5.0 * 2.0 * math.pi
    s_small, s_large = split < small, split > large
    g_small, g_large = strength < small, strength > large
    if s_small and g_small:
        return "kicked-perturbative"
    if s_small and g_large:
        return "kicked-adiabatic"
    if s_large and g_small:
        return "perturbative"
    if s_large and g_large:
        return "adiabatic"
    return "intermediate"


# ------------------------------------------------------------------ checkers


def _close(got, want, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_obs(job, text, problems):
    header, rows = parse_csv(text)
    _expect(problems, header == OBS_HEADER, "obs-time header")
    tau, alpha = job.params["tau"], job.params["alpha"]
    grid = np.linspace(T_K_2S2P, T_K_2S2P + 3.0 * PERIOD_2S2P, 200)[1:]
    if rows.shape != (len(grid), 4):
        problems.append(f"obs-time shape {rows.shape}")
        return
    tf, ordered, nto_s, nto_i = rows.T
    _expect(problems, _close(tf, grid, TOL_EXACT * grid), "obs-time tf grid")
    schr = [
        p2_nto_schrodinger(gaussian_window_area(alpha, T_K_2S2P, tau, 0.0, t), DELTA_E_2S2P, t)
        for t in tf
    ]
    _expect(problems, _close(nto_s, schr, TOL_EXACT), "obs-time Schrodinger NTO vs erf form")
    beyond = tf >= T_K_2S2P + GAUSS_WIDTHS * tau
    plateau = p2_nto_interaction_full_gaussian(alpha, tau, DELTA_E_2S2P)
    _expect(problems, beyond.any() and _close(nto_i[beyond], plateau, TOL_NTO_PLATEAU),
            "obs-time interaction NTO beyond the pulse vs sin^2(alpha exp(-(dE tau/2)^2))")
    _expect(problems, np.all(ordered[beyond] == ordered[beyond][0]),
            "obs-time ordered column not constant beyond the pulse")


def _check_evolve(job, text, problems):
    header, rows = parse_csv(text)
    _expect(problems, header == EVOLVE_HEADER, "evolve header")
    t, p1, p2 = rows.T
    _expect(problems, t[0] == 0.0 and p1[0] == 1.0 and p2[0] == 0.0, "evolve initial row")
    tf = T_K_2S2P + 3.0 * PERIOD_2S2P
    _expect(problems, abs(t[-1] - tf) <= TOL_EXACT * tf, "evolve final time")
    drift = float(np.max(np.abs(1.0 - p1 - p2)))
    _expect(problems, drift <= TOL_NORM_DRIFT, f"evolve norm drift {drift:.3g}")
    _expect(problems, (len(rows) > 10_000) == job.params["full"], "evolve recording density")


def _check_kick_limit(job, text, problems):
    header, rows = parse_csv(text)
    _expect(problems, header == KICK_LIMIT_HEADER, "kick-limit header")
    alpha = job.params["alpha"]
    ladder = np.array([PERIOD_2S2P / 2**k for k in range(1, 9)])
    if rows.shape != (8, 4):
        problems.append(f"kick-limit shape {rows.shape}")
        return
    tau, _, nto_i, nto_s = rows.T
    _expect(problems, _close(tau, ladder, TOL_EXACT * ladder), "kick-limit width ladder")
    for w, pi, ps in zip(tau, nto_i, nto_s):
        window = T_K_2S2P + 8.0 * w
        area = gaussian_window_area(alpha, T_K_2S2P, w, 0.0, window)
        _expect(problems, abs(ps - p2_nto_schrodinger(area, DELTA_E_2S2P, window)) <= TOL_EXACT,
                f"kick-limit Schrodinger NTO at tau={w:g}")
        if T_K_2S2P - GAUSS_WIDTHS * w >= 0.0:
            want = p2_nto_interaction_full_gaussian(alpha, w, DELTA_E_2S2P)
            _expect(problems, abs(pi - want) <= TOL_NTO_PLATEAU,
                    f"kick-limit interaction NTO at tau={w:g}")


def _check_compare(job, text, problems):
    out = json.loads(text)
    for pic in ("interaction", "schrodinger"):
        _expect(problems, out[f"difference_{pic}"] == out["p2_ordered"] - out[f"p2_nto_{pic}"],
                f"compare-nto difference_{pic}")
    p = job.params
    if job.kind == "compare_smooth":
        tf = T_K_2S2P + 3.0 * PERIOD_2S2P
        area = gaussian_window_area(p["alpha"], T_K_2S2P, p["tau"], 0.0, tf)
        want_s = p2_nto_schrodinger(area, DELTA_E_2S2P, tf)
        want_i = p2_nto_interaction_full_gaussian(p["alpha"], p["tau"], DELTA_E_2S2P)
        tol_i = TOL_NTO_PLATEAU
    else:
        kicks, delta_e = p["kicks"], p["delta_e"]
        u = kick_product(kicks, delta_e)
        _expect(problems, abs(out["p2_ordered"] - abs(u[1, 0]) ** 2) <= TOL_EXACT,
                "compare-nto ordered P2 vs product of single-kick matrices")
        total = kick_matrices(kicks, delta_e).sum(axis=0)[1, 0]
        want_i = math.sin(abs(total)) ** 2
        strength = sum(a * axis_phase(ax) for a, _, ax in kicks)
        want_s = p2_nto_schrodinger(strength, delta_e, p["tf"])
        tol_i = TOL_EXACT
    _expect(problems, abs(out["p2_nto_interaction"] - want_i) <= tol_i, "compare-nto interaction NTO")
    _expect(problems, abs(out["p2_nto_schrodinger"] - want_s) <= TOL_EXACT, "compare-nto Schrodinger NTO")


def _check_pert2(job, text, problems):
    out = json.loads(text)
    m = {k: _matrix(out[k]) for k in
         ("zeroth", "first", "second_ordered", "second_nto", "commutator_correction")}
    _expect(problems, np.array_equal(m["zeroth"], np.eye(2)), "pert2 zeroth order is not 1")
    residual = float(np.max(np.abs(m["second_ordered"] - m["second_nto"] - m["commutator_correction"])))
    smooth = job.kind == "pert2_smooth"
    tol_identity = TOL_QUAD2 if smooth else TOL_KICK_IDENTITY
    _expect(problems, residual <= tol_identity and out["identity_residual"] <= tol_identity,
            f"pert2 identity residual {residual:.3g}")
    p = job.params
    if smooth:
        i1 = offdiag(sum(first_order_area(q, p["delta_e"]) for q in p["pulses"]))
        tol = TOL_FIRST_ORDER
    else:
        a = kick_matrices(p["kicks"], p["delta_e"])  # kicks sorted by time, all distinct
        earlier = np.cumsum(a, axis=0) - a
        pairs = np.einsum("nij,njk->nik", a, earlier)
        i1 = a.sum(axis=0)
        self_pairs = 0.5 * sum(k[0] ** 2 for k in p["kicks"]) * np.eye(2)
        swapped = np.einsum("nij,njk->nik", earlier, a)
        _expect(problems, _close(m["second_ordered"], -(pairs.sum(axis=0) + self_pairs), TOL_KICK_SUMS),
                "pert2 ordered second order vs prefix-sum form")
        _expect(problems, _close(m["commutator_correction"], -0.5 * (pairs - swapped).sum(axis=0),
                                 TOL_KICK_SUMS), "pert2 commutator correction vs prefix-sum form")
        tol = TOL_KICK_SUMS
    _expect(problems, _close(m["first"], -1j * i1, tol), "pert2 first order vs closed form")
    _expect(problems, _close(m["second_nto"], -0.5 * (i1 @ i1), tol), "pert2 unordered square")


def _check_surface(job, text, problems):
    header, rows = parse_csv(text)
    _expect(problems, header == SURFACE_HEADER, "sweep-surface header")
    eps, phi = job.params["eps"], job.params["phi"]
    grid = np.array([(e, f) for e in eps for f in phi])
    if rows.shape != (len(grid), 5):
        problems.append(f"sweep-surface shape {rows.shape}")
        return
    _expect(problems, np.array_equal(rows[:, :2], grid), "sweep-surface grid order")
    ordered = np.array([(e * math.sin(f)) ** 2 for e, f in grid])
    nto = np.array([math.sin(e * f) ** 2 for e, f in grid])
    _expect(problems, _close(rows[:, 2], ordered, TOL_SURFACE), "sweep-surface (eps sin phi)^2")
    _expect(problems, _close(rows[:, 3], nto, TOL_SURFACE), "sweep-surface sin^2(eps phi)")
    _expect(problems, _close(rows[:, 4], rows[:, 2] - rows[:, 3], 0.0), "sweep-surface difference")


def _check_classify(job, text, problems):
    out = json.loads(text)
    split, strength = job.params["split"], job.params["strength"]
    _expect(problems, out["half_split_phase"] == split and out["strength_phase"] == strength,
            "map-classify echo")
    _expect(problems, out["regime"] == classify(split, strength), "map-classify regime")


CHECKS = {
    "obs": _check_obs,
    "evolve": _check_evolve,
    "kick_limit": _check_kick_limit,
    "compare_smooth": _check_compare,
    "compare_kicks": _check_compare,
    "pert2_smooth": _check_pert2,
    "pert2_kicks": _check_pert2,
    "surface": _check_surface,
    "classify": _check_classify,
}
REFERENCED = {"obs", "evolve", "kick_limit", "compare_smooth", "pert2_smooth"}


def check_output(job, rc: int, text: str, reference: dict) -> list[str]:
    """Problems with one job's result; an empty list means it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems: list[str] = []
    try:
        CHECKS[job.kind](job, text, problems)
        if job.kind in REFERENCED:
            want = reference.get(job.key)
            got = summary(text)
            if want is None:
                problems.append("no reference value recorded for this job")
            elif len(got) != len(want) or not _close(got, want, TOL_REFERENCE * (1.0 + np.abs(want))):
                problems.append("numbers differ from the recorded reference")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


# ---------------------------------------------------------------- self-test

_NUMBER = re.compile(r"-?\d+\.\d+(?:e[-+]?\d+)?")


def data_numbers(text: str) -> list[re.Match]:
    """Decimal numbers in the data part of an output (CSV comments skipped)."""
    found = []
    offset = 0
    for line in text.splitlines(keepends=True):
        if not line.startswith("#"):
            found.extend(_NUMBER.finditer(text, offset, offset + len(line)))
        offset += len(line)
    return found


def corrupt(text: str, which: int) -> str:
    """Change the leading digit of one data number (0 first, -1 last)."""
    match = data_numbers(text)[which]
    i = match.start() + (1 if match.group().startswith("-") else 0)
    digit = str((int(text[i]) + 1) % 10)
    return text[:i] + digit + text[i + 1:]
