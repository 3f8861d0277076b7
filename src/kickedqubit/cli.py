"""Command-line front end: config parsing, unit conversion, CSV/JSON output.

Subcommands
    evolve         RK4 trajectory (t, p1, p2) for a configured schedule
    sweep-surface  ordering-difference surface on an (eps, phi) grid
    compare-nto    ordered vs NTO transfer probability for one schedule
    map-classify   regime of a (split phase, strength phase) point
    pert2          second-order breakdown and the ordering-identity residual
    kick-limit     pulse-width ladder (RK4 vs NTO in both pictures)
    obs-time       observation-time scan for one Gaussian pulse

Options may come from a config file of ``key = value`` lines with one
``[section]`` per subcommand; command-line flags override file values.
Pulses are written ``kind:...`` separated by semicolons, e.g.
``kick:0.3:1.0:x; gaussian:1.5707963267948966:150:9.46:x`` where the fields
are kick:ALPHA:T[:AXIS], gaussian:ALPHA:CENTER:TAU[:AXIS], and
rect:ALPHA:START:TAU[:AXIS].

Exit codes: 0 success, 2 configuration error, 3 precondition violation,
4 I/O failure, 5 internal numeric failure. Runs are deterministic: the same
configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .diagnostics import (
    KickLimitRow,
    ObservationRow,
    SurfacePoint,
    classify_regime,
    default_surface_grids,
    kick_limit_scan,
    observation_time_scan,
    ordering_difference_surface,
    transfer_probabilities,
)
from .ode import IntegratorConfig, default_step, evolve
from .perturbation import dyson_second_order
from .pulses import DeltaKick, Gaussian, Rectangular, Representation, Schedule
from .su2 import PauliAxis
from .units import DELTA_E_2S2P_EV, T_K_2S2P_PS, delta_e_from_ev, preset_2s2p, rabi_period

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4
EXIT_NUMERIC = 5


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------- config file


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        sections[current][key.strip()] = value.strip()
    return sections


# Pulse kind: (class, count of numeric fields before the optional axis).
PULSE_KINDS = {"kick": (DeltaKick, 2), "gaussian": (Gaussian, 3), "rect": (Rectangular, 3)}


def parse_pulses(text: str) -> tuple:
    pulses = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, *fields = [f.strip() for f in chunk.split(":")]
        cls, n = PULSE_KINDS.get(kind.lower(), (None, 0))
        if cls is None or len(fields) not in (n, n + 1):
            raise ConfigError(f"unrecognized pulse spec {chunk!r}")
        try:
            axis = PauliAxis.from_str(fields[n]) if len(fields) > n else PauliAxis.X
            pulses.append(cls(*map(float, fields[:n]), axis))
        except ValueError as exc:
            raise ConfigError(f"bad pulse spec {chunk!r}: {exc}") from exc
    return tuple(pulses)


def _merged(args: argparse.Namespace, file_opts: dict[str, str], key: str, default=None):
    """Flag > config file > default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_opts:
        return file_opts[key]
    return default


def _as_float(value, key: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r} must be a number, got {value!r}") from None


def _as_int(value, key: str) -> int:
    try:
        return int(str(value), 10)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}") from None


def _float_list(value: str, key: str) -> list[float]:
    parts = [p for p in value.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"field {key!r} must list at least one number")
    return [_as_float(p, key) for p in parts]


def _is_preset(args, opts) -> bool:
    """True when the 2s-2p preset is selected; another name or a PRESET_FIXED input is an error."""
    preset = _merged(args, opts, "preset")
    if preset is None:
        return False
    if preset != "2s2p":
        raise ConfigError(f"unknown preset {preset!r}")
    accepted = COMMANDS[args.command][1]
    fixed = [k for k in PRESET_FIXED if k in accepted and _merged(args, opts, k) is not None]
    if fixed:
        raise ConfigError(f"--preset 2s2p fixes {', '.join(fixed)}; drop the preset or the value")
    return True


def _delta_e(args, opts) -> float:
    """The splitting from delta-e in the given unit, converted to internal units."""
    delta_e = _merged(args, opts, "delta-e")
    if delta_e is None:
        raise ConfigError("delta-e is required (or use --preset 2s2p)")
    unit = _merged(args, opts, "unit", "dimensionless")
    if unit not in ("dimensionless", "ev_ps"):
        raise ConfigError(f"unknown unit {unit!r}; expected dimensionless or ev_ps")
    value = _as_float(delta_e, "delta-e")
    return delta_e_from_ev(value) if unit == "ev_ps" else value


def build_schedule(args, opts) -> Schedule:
    if _is_preset(args, opts):
        tau = _as_float(_merged(args, opts, "tau", 9.46), "tau")
        alpha = _as_float(_merged(args, opts, "alpha", math.pi / 2), "alpha")
        tf = _merged(args, opts, "tf")
        return preset_2s2p(tau, alpha, None if tf is None else _as_float(tf, "tf"))

    unused = [k for k in ("tau", "alpha") if _merged(args, opts, k) is not None]
    if unused:
        raise ConfigError(f"{', '.join(unused)} apply only with --preset 2s2p; give the pulse in --pulses")
    delta_e = _delta_e(args, opts)
    t0 = _as_float(_merged(args, opts, "t0", 0.0), "t0")
    tf = _as_float(_merged(args, opts, "tf", 1.0), "tf")
    pulses = parse_pulses(_merged(args, opts, "pulses", ""))
    try:
        return Schedule(delta_e, pulses, t0, tf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -------------------------------------------------------------------- output


def _fmt(value) -> str:
    # repr of a Python float is the shortest decimal that round-trips.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(args, opts, header: list[str], rows, comments: dict) -> None:
    """Serialize a diagnostic table as CSV (default) or JSON.

    CSV carries the resolved configuration in '#' comment lines; JSON holds
    one object per row with the same field names, plus the config object.
    """
    fmt = str(_merged(args, opts, "format", "csv"))
    if fmt == "json":
        payload = {
            "config": {k: str(v) for k, v in comments.items()},
            "rows": [
                {name: float(v) for name, v in zip(header, row)} for row in rows
            ],
        }
        write_json(args.output, payload)
        return
    if fmt != "csv":
        raise ConfigError(f"unknown output format {fmt!r}; expected csv or json")
    lines = [f"# {k} = {v}" for k, v in sorted(comments.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join([repr(v) if type(v) is float else _fmt(v) for v in row]))
    _write(args.output, "\n".join(lines) + "\n")


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def matrix_json(m: np.ndarray) -> list[list[list[float]]]:
    """2x2 complex matrix as nested [re, im] pairs, row-major."""
    return [[_complex_pair(m[i, j]) for j in range(2)] for i in range(2)]


def write_json(path: str, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; '-' means stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ----------------------------------------------------------------- commands


def _resolved_comment(args, opts) -> dict:
    """The command name and every echoed flag that was set, for the CSV header."""
    out = {"command": args.command}
    for key in COMMANDS[args.command][1]:
        value = _merged(args, opts, key)
        if value is not None:
            out[key] = value
    return out


def cmd_evolve(args, opts) -> None:
    s = build_schedule(args, opts)
    rep_text = str(_merged(args, opts, "representation", "schrodinger"))
    try:
        rep = Representation(rep_text)
    except ValueError:
        raise ConfigError(
            f"unknown representation {rep_text!r}; expected schrodinger or interaction"
        ) from None
    dt = _merged(args, opts, "dt")
    dt = default_step(s) if dt is None else _as_float(dt, "dt")
    record_every = _as_int(_merged(args, opts, "record-every", 1), "record-every")
    cfg = IntegratorConfig(dt, rep, record_every)
    traj = evolve(s, cfg)
    rows = np.column_stack((traj.times, traj.probabilities())).tolist()
    comments = _resolved_comment(args, opts)
    comments["dt"] = _fmt(dt)
    comments["representation"] = rep.value
    write_table(args, opts, ["t", "p1", "p2"], rows, comments)


def cmd_sweep_surface(args, opts) -> None:
    eps_default, phi_default = default_surface_grids()
    eps = _merged(args, opts, "eps-grid")
    phi = _merged(args, opts, "phi-grid")
    eps_grid = eps_default if eps is None else _float_list(eps, "eps-grid")
    phi_grid = phi_default if phi is None else _float_list(phi, "phi-grid")
    points = ordering_difference_surface(eps_grid, phi_grid)
    comments = _resolved_comment(args, opts)
    comments["eps-points"] = len(eps_grid)
    comments["phi-points"] = len(phi_grid)
    write_table(args, opts, list(SurfacePoint._fields), points, comments)


def cmd_compare_nto(args, opts) -> None:
    names = ("p2_ordered", "p2_nto_interaction", "p2_nto_schrodinger")
    result = dict(zip(names, transfer_probabilities(build_schedule(args, opts))))
    result["difference_interaction"] = result["p2_ordered"] - result["p2_nto_interaction"]
    result["difference_schrodinger"] = result["p2_ordered"] - result["p2_nto_schrodinger"]
    write_json(args.output, result)


def cmd_map_classify(args, opts) -> None:
    split = _as_float(_merged(args, opts, "split-phase"), "split-phase")
    strength = _as_float(_merged(args, opts, "strength-phase"), "strength-phase")
    regime = classify_regime(split, strength)
    write_json(
        args.output,
        {"half_split_phase": split, "strength_phase": strength, "regime": regime.value},
    )


def cmd_pert2(args, opts) -> None:
    s = build_schedule(args, opts)
    b = dyson_second_order(s)
    write_json(
        args.output,
        {
            "zeroth": matrix_json(b.zeroth),
            "first": matrix_json(b.first),
            "second_ordered": matrix_json(b.second_ordered),
            "second_nto": matrix_json(b.second_nto),
            "commutator_correction": matrix_json(b.commutator_correction),
            "identity_residual": b.identity_residual(),
        },
    )


def cmd_kick_limit(args, opts) -> None:
    delta_e, alpha, t_k = _preset_or_fields(args, opts)
    taus = _merged(args, opts, "taus")
    taus = _default_tau_ladder(delta_e) if taus is None else _float_list(taus, "taus")
    rows = kick_limit_scan(delta_e, alpha, t_k, taus)
    write_table(args, opts, list(KickLimitRow._fields), rows, _resolved_comment(args, opts))


def cmd_obs_time(args, opts) -> None:
    delta_e, alpha, t_k = _preset_or_fields(args, opts)
    tau = _as_float(_merged(args, opts, "tau", 9.46), "tau")
    grid = _merged(args, opts, "tf-grid")
    if grid is None:
        period = _free_period(delta_e, "tf-grid")
        count = _as_int(_merged(args, opts, "tf-count", 200), "tf-count")
        if count < 2:
            raise ConfigError(f"field 'tf-count' must be at least 2, got {count}")
        grid_values = np.linspace(t_k, t_k + 3.0 * period, count)[1:]
    else:
        grid_values = _float_list(grid, "tf-grid")
    rows = observation_time_scan(delta_e, alpha, t_k, tau, grid_values)
    write_table(args, opts, list(ObservationRow._fields), rows, _resolved_comment(args, opts))


def _free_period(delta_e: float, flag: str) -> float:
    """The free period 2 pi / |delta-e| that scales a default grid; none exists at delta-e = 0."""
    period = rabi_period(delta_e)
    if math.isinf(period):
        raise ConfigError(f"delta-e = {delta_e!r} has no free period to scale a grid; give --{flag}")
    return period


def _default_tau_ladder(delta_e: float) -> list[float]:
    return [_free_period(delta_e, "taus") / 2**k for k in range(1, 9)]


def _preset_or_fields(args, opts) -> tuple[float, float, float]:
    """(delta_e, alpha, t_k) from the preset or explicit fields."""
    preset = _is_preset(args, opts)
    delta_e = delta_e_from_ev(DELTA_E_2S2P_EV) if preset else _delta_e(args, opts)
    alpha = _as_float(_merged(args, opts, "alpha", math.pi / 2), "alpha")
    t_k = T_K_2S2P_PS if preset else _as_float(_merged(args, opts, "t-k", 0.0), "t-k")
    return delta_e, alpha, t_k


# Inputs the 2s-2p preset sets itself; giving one beside it is a config error.
PRESET_FIXED = ["delta-e", "unit", "t0", "pulses", "t-k"]
SCHEDULE_FLAGS = ["preset", "delta-e", "unit", "t0", "tf", "pulses", "tau", "alpha"]
PULSE_FLAGS = ["preset", "delta-e", "unit", "alpha", "t-k"]

# name: (handler, echoed flags, other flags). Echoed flags are the problem
# inputs a CSV table repeats in its '#' header; every flag is also a config key.
COMMANDS = {
    "evolve": (cmd_evolve, SCHEDULE_FLAGS, ["dt", "representation", "record-every", "format"]),
    "sweep-surface": (cmd_sweep_surface, [], ["eps-grid", "phi-grid", "format"]),
    "compare-nto": (cmd_compare_nto, SCHEDULE_FLAGS, []),
    "map-classify": (cmd_map_classify, [], ["split-phase", "strength-phase"]),
    "pert2": (cmd_pert2, SCHEDULE_FLAGS, []),
    "kick-limit": (cmd_kick_limit, PULSE_FLAGS, ["taus", "format"]),
    "obs-time": (cmd_obs_time, PULSE_FLAGS + ["tau"], ["tf-grid", "tf-count", "format"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kickedqubit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, echoed, other) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--output", "-o", default="-", help="output path ('-' for stdout)")
        for flag in echoed + other:
            p.add_argument(f"--{flag}", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_opts: dict[str, str] = {}
        if args.config:
            sections = parse_config_file(args.config)
            file_opts = sections.get(args.command, {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            COMMANDS[args.command][0](args, file_opts)
    except ConfigError as exc:
        print(f"kickedqubit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"kickedqubit: precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"kickedqubit: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"kickedqubit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
