"""Command-line front end: config parsing, unit conversion, CSV/JSON output.

Commands
    evolve         RK4 trajectory (t, p1, p2) for a configured schedule
    sweep-surface  ordering-difference surface on an (eps, phi) grid
    compare-nto    ordered vs NTO transfer probability for one schedule
    map-classify   regime of a (split phase, strength phase) point
    pert2          second-order breakdown and the ordering-identity residual
    kick-limit     pulse-width ladder (RK4 vs NTO in both pictures)
    obs-time       observation-time scan for one Gaussian pulse

Options may come from a config file of ``key = value`` lines with one
``[section]`` per command, keyed by the exact flag names (no prefix is taken);
flags override file values. ``kickedqubit --help`` lists each command's flags.
Pulses are written ``kind:...`` separated by semicolons, e.g.
``kick:0.3:1.0:x; gaussian:1.5707963267948966:150:9.46:x`` where the fields
are kick:ALPHA:T[:AXIS], gaussian:ALPHA:CENTER:TAU[:AXIS], and
rect:ALPHA:START:TAU[:AXIS].

Exit codes: 0 success, 2 configuration error, 3 precondition violation (a
surface grid above the record limit, say), 4 I/O failure, 5 numeric failure.
Runs are deterministic: the same configuration produces byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .ode import MAX_RECORDS, IntegratorConfig, default_step, evolve
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
            if current not in COMMANDS:
                raise ConfigError(f"{path}:{lineno}: section [{current}] names no command")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats in [{current}]")
        sections[current][key] = value
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


def _float(opts: dict, key: str, default=None) -> float:
    value = opts.get(key, default)
    if value is None:
        raise ConfigError(f"{key} is required")
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"field {key!r} must be a number, got {value!r}") from None


def _int(opts: dict, key: str, default: int) -> int:
    value = opts.get(key, default)
    try:
        return int(str(value), 10)
    except ValueError:
        raise ConfigError(f"field {key!r} must be an integer, got {value!r}") from None


def _floats(opts: dict, key: str) -> list[float] | None:
    """The numbers listed under ``key``, split at spaces or commas; None when it is not given."""
    if key not in opts:
        return None
    parts = opts[key].replace(",", " ").split()
    if not parts:
        raise ConfigError(f"field {key!r} must list at least one number")
    return [_float({key: part}, key) for part in parts]


def _is_preset(opts: dict) -> bool:
    """True when the 2s-2p preset is selected; another name or a PRESET_FIXED input is an error."""
    preset = opts.get("preset")
    if preset is None:
        return False
    if preset != "2s2p":
        raise ConfigError(f"unknown preset {preset!r}")
    fixed = [k for k in PRESET_FIXED if k in opts]
    if fixed:
        raise ConfigError(f"--preset 2s2p fixes {', '.join(fixed)}; drop the preset or the value")
    return True


def _delta_e(opts: dict) -> float:
    """The splitting from delta-e in the given unit, converted to internal units."""
    if "delta-e" not in opts:
        raise ConfigError("delta-e is required (or use --preset 2s2p)")
    unit = opts.get("unit", "dimensionless")
    if unit not in ("dimensionless", "ev_ps"):
        raise ConfigError(f"unknown unit {unit!r}; expected dimensionless or ev_ps")
    value = _float(opts, "delta-e")
    return delta_e_from_ev(value) if unit == "ev_ps" else value


def build_schedule(opts: dict) -> Schedule:
    if _is_preset(opts):
        tau = _float(opts, "tau", 9.46)
        alpha = _float(opts, "alpha", math.pi / 2)
        return preset_2s2p(tau, alpha, _float(opts, "tf") if "tf" in opts else None)

    unused = [k for k in ("tau", "alpha") if k in opts]
    if unused:
        raise ConfigError(f"{', '.join(unused)} apply only with --preset 2s2p; give the pulse in --pulses")
    delta_e = _delta_e(opts)
    t0 = _float(opts, "t0", 0.0)
    tf = _float(opts, "tf", 1.0)
    pulses = parse_pulses(opts.get("pulses", ""))
    try:
        return Schedule(delta_e, pulses, t0, tf)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -------------------------------------------------------------------- output


def write_table(opts: dict, header: list[str], rows, comments: dict) -> None:
    """Serialize a diagnostic table as CSV (default) or JSON.

    CSV carries the resolved configuration in '#' comment lines; JSON holds
    one object per row with the same field names, plus the config object.
    """
    fmt = opts.get("format", "csv")
    if fmt == "json":
        payload = {"config": {k: str(v) for k, v in comments.items()},
                   "rows": [{name: float(v) for name, v in zip(header, row)} for row in rows]}
        write_json(opts["output"], payload)
        return
    if fmt != "csv":
        raise ConfigError(f"unknown output format {fmt!r}; expected csv or json")
    lines = [f"# {k} = {v}" for k, v in sorted(comments.items())]
    lines.append(",".join(header))
    # Every row holds Python floats, whose repr is the shortest decimal that round-trips.
    lines.extend(",".join(map(repr, row)) for row in rows)
    _write(opts["output"], "\n".join(lines) + "\n")


def matrix_json(m: np.ndarray) -> list[list[list[float]]]:
    """2x2 complex matrix as nested [re, im] pairs, row-major."""
    return [[[z.real, z.imag] for z in row] for row in m.tolist()]


def write_json(path: str, obj: dict) -> None:
    _write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; '-' means stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ----------------------------------------------------------------- commands


def _resolved_comment(opts: dict) -> dict:
    """The command name and every echoed flag that was set, for the CSV header."""
    return {k: opts[k] for k in ["command", *COMMANDS[opts["command"]][1]] if k in opts}


def cmd_evolve(opts: dict) -> None:
    s = build_schedule(opts)
    rep_text = opts.get("representation", "schrodinger")
    try:
        rep = Representation(rep_text)
    except ValueError:
        raise ConfigError(
            f"unknown representation {rep_text!r}; expected schrodinger or interaction"
        ) from None
    dt = _float(opts, "dt") if "dt" in opts else default_step(s)
    cfg = IntegratorConfig(dt, rep, _int(opts, "record-every", 1))
    traj = evolve(s, cfg)
    rows = np.column_stack((traj.times, traj.probabilities())).tolist()
    comments = _resolved_comment(opts)
    comments["dt"] = repr(dt)
    comments["representation"] = rep.value
    write_table(opts, ["t", "p1", "p2"], rows, comments)


def cmd_sweep_surface(opts: dict) -> None:
    eps_default, phi_default = default_surface_grids()
    eps_grid = _floats(opts, "eps-grid") or eps_default
    phi_grid = _floats(opts, "phi-grid") or phi_default
    points = ordering_difference_surface(eps_grid, phi_grid)
    comments = _resolved_comment(opts)
    comments["eps-points"] = len(eps_grid)
    comments["phi-points"] = len(phi_grid)
    write_table(opts, list(SurfacePoint._fields), points, comments)


def cmd_compare_nto(opts: dict) -> None:
    names = ("p2_ordered", "p2_nto_interaction", "p2_nto_schrodinger")
    s = build_schedule(opts)
    result = dict(zip(names, transfer_probabilities(s, s.tf)))
    result["difference_interaction"] = result["p2_ordered"] - result["p2_nto_interaction"]
    result["difference_schrodinger"] = result["p2_ordered"] - result["p2_nto_schrodinger"]
    write_json(opts["output"], result)


def cmd_map_classify(opts: dict) -> None:
    split = _float(opts, "split-phase")
    strength = _float(opts, "strength-phase")
    regime = classify_regime(split, strength)
    write_json(
        opts["output"],
        {"half_split_phase": split, "strength_phase": strength, "regime": regime.value},
    )


def cmd_pert2(opts: dict) -> None:
    b = dyson_second_order(build_schedule(opts))
    result = {f.name: matrix_json(getattr(b, f.name)) for f in dataclasses.fields(b)}
    result["identity_residual"] = b.identity_residual()
    write_json(opts["output"], result)


def cmd_kick_limit(opts: dict) -> None:
    delta_e, alpha, t_k = _preset_or_fields(opts)
    taus = _floats(opts, "taus") or [_free_period(delta_e, "taus") / 2**k for k in range(1, 9)]
    rows = kick_limit_scan(delta_e, alpha, t_k, taus)
    write_table(opts, list(KickLimitRow._fields), rows, _resolved_comment(opts))


def cmd_obs_time(opts: dict) -> None:
    delta_e, alpha, t_k = _preset_or_fields(opts)
    tau = _float(opts, "tau", 9.46)
    grid = _floats(opts, "tf-grid")
    if grid is None:
        period = _free_period(delta_e, "tf-grid")
        count = _int(opts, "tf-count", 200)
        if not 2 <= count <= MAX_RECORDS:
            raise ConfigError(f"field 'tf-count' must lie in [2, {MAX_RECORDS}], got {count}")
        grid = np.linspace(t_k, t_k + 3.0 * period, count)[1:]
    rows = observation_time_scan(delta_e, alpha, t_k, tau, grid)
    write_table(opts, list(ObservationRow._fields), rows, _resolved_comment(opts))


def _free_period(delta_e: float, flag: str) -> float:
    """The free period 2 pi / |delta-e| that scales a default grid; none exists at delta-e = 0."""
    period = rabi_period(delta_e)
    if math.isinf(period):
        raise ConfigError(f"delta-e = {delta_e!r} has no free period to scale a grid; give --{flag}")
    return period


def _preset_or_fields(opts: dict) -> tuple[float, float, float]:
    """(delta_e, alpha, t_k) from the preset or explicit fields."""
    preset = _is_preset(opts)
    delta_e = delta_e_from_ev(DELTA_E_2S2P_EV) if preset else _delta_e(opts)
    alpha = _float(opts, "alpha", math.pi / 2)
    t_k = T_K_2S2P_PS if preset else _float(opts, "t-k", 0.0)
    return delta_e, alpha, t_k


# Inputs the 2s-2p preset sets itself; giving one beside it is a config error.
PRESET_FIXED = ["delta-e", "unit", "t0", "pulses", "t-k"]
SCHEDULE_FLAGS = ["preset", "delta-e", "unit", "t0", "tf", "pulses", "tau", "alpha"]
PULSE_FLAGS = ["preset", "delta-e", "unit", "alpha", "t-k"]

# name: (handler, echoed flags, other flags). Echoed flags are the problem
# inputs a CSV table repeats in its '#' header; the config keys of a command's
# [section] are exactly its flags.
COMMANDS = {
    "evolve": (cmd_evolve, SCHEDULE_FLAGS, ["dt", "representation", "record-every", "format"]),
    "sweep-surface": (cmd_sweep_surface, [], ["eps-grid", "phi-grid", "format"]),
    "compare-nto": (cmd_compare_nto, SCHEDULE_FLAGS, []),
    "map-classify": (cmd_map_classify, [], ["split-phase", "strength-phase"]),
    "pert2": (cmd_pert2, SCHEDULE_FLAGS, []),
    "kick-limit": (cmd_kick_limit, PULSE_FLAGS, ["taus", "format"]),
    "obs-time": (cmd_obs_time, PULSE_FLAGS + ["tau"], ["tf-grid", "tf-count", "format"]),
}


@functools.cache  # one parser per process; main only reads it
def build_parser() -> argparse.ArgumentParser:
    lines = [f"  {name}: " + " ".join(f"--{f}" for f in echoed + other) for name, (_, echoed, other) in COMMANDS.items()]
    parser = argparse.ArgumentParser(
        prog="kickedqubit", usage="%(prog)s COMMAND [--config FILE] [-o OUTPUT] [--FLAG VALUE ...]", description=__doc__,
        epilog="\n".join(["flags by command:", *lines]), formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False, argument_default=argparse.SUPPRESS)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--output", "-o", default="-", help="output path ('-' for stdout)")
    for flag in dict.fromkeys(f for _, echoed, other in COMMANDS.values() for f in echoed + other):
        parser.add_argument(f"--{flag}", dest=flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    given = vars(parser.parse_args(argv))
    command, config = given["command"], given.get("config")
    handler, echoed, other = COMMANDS[command]
    # One list per command, echoed + other, decides both its flags and its config keys.
    foreign = [f"--{k}" for k in given if k not in echoed + other + ["command", "config", "output"]]
    if foreign:
        parser.error(f"{command} takes no {', '.join(foreign)}")
    try:
        # One options dict keyed by flag name: the flags given override the
        # command's [section] of --config, whose other keys are errors.
        section = parse_config_file(config).get(command, {}) if config else {}
        unknown = [k for k in section if k not in echoed + other]
        if unknown:
            raise ConfigError(f"[{command}] in {config} has keys that are not its flags: {', '.join(unknown)}")
        opts = section | given
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            handler(opts)
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
