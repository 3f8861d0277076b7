import argparse
import json
import math

import numpy as np
import pytest

import kickedqubit.cli as cli
from kickedqubit.cli import COMMANDS, main, parse_config_file, parse_pulses
from kickedqubit.perturbation import TOL_QUAD2
from kickedqubit.pulses import DeltaKick, Gaussian
from kickedqubit.su2 import PauliAxis


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    header = None
    rows = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return header, rows, comments


def test_parse_pulses_forms():
    pulses = parse_pulses("kick:0.3:1.0; gaussian:1.5:150:9.46:x; rect:0.2:0:4:y")
    assert isinstance(pulses[0], DeltaKick) and pulses[0].alpha == 0.3
    assert isinstance(pulses[1], Gaussian) and pulses[1].tau == 9.46
    assert pulses[2].axis is PauliAxis.Y


def test_parse_config_file_sections(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n[evolve]\ndelta-e = 1.5\ntf = 2.0\n\n[pert2]\ndelta-e = 0.0\n")
    sections = parse_config_file(str(cfg))
    assert sections["evolve"]["delta-e"] == "1.5"
    assert sections["pert2"]["delta-e"] == "0.0"


def test_sweep_surface_columns_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["sweep-surface", "-o", out1]) == 0
    assert run(["sweep-surface", "-o", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows, _ = read_csv(out1)
    assert header == ["epsilon", "phi", "p2_ordered", "p2_nto", "difference"]
    assert len(rows) == 51 * 126


def test_csv_round_trip_precision(tmp_path):
    out = tmp_path / "surface.csv"
    run(["sweep-surface", "-o", out, "--eps-grid", "0.3 0.7", "--phi-grid", "0.5 1.1"])
    _, rows, _ = read_csv(out)
    for eps, phi, p2o, p2n, diff in rows:
        assert p2o == (eps * math.sin(phi)) ** 2
        assert p2n == math.sin(eps * phi) ** 2
        assert diff == p2o - p2n


def test_evolve_preset_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(
        ["evolve", "--preset", "2s2p", "--tau", "9.46", "--tf", "230", "-o", out, "--record-every", "50"]
    )
    assert code == 0
    header, rows, comments = read_csv(out)
    assert header == ["t", "p1", "p2"]
    assert rows[0][1] == 1.0 and rows[0][2] == 0.0
    assert rows[-1][2] > 0.99  # full transfer for the pi/2 pulse
    assert any("command = evolve" in c for c in comments)


def test_evolve_explicit_schedule(tmp_path):
    out = tmp_path / "free.csv"
    code = run(["evolve", "--delta-e", "1.0", "--tf", "5.0", "-o", out, "--record-every", "100"])
    assert code == 0
    _, rows, _ = read_csv(out)
    assert all(abs(r[1] - 1.0) < 1e-9 for r in rows)


def test_compare_nto_kick_pair(tmp_path):
    out = tmp_path / "cmp.json"
    code = run(
        ["compare-nto", "--delta-e", "1.0", "--tf", "4.0", "--pulses", "kick:0.3:1.0; kick:-0.3:2.5", "-o", out]
    )
    assert code == 0
    data = json.loads(out.read_text())
    expected = (math.sin(0.6) * math.sin(0.75)) ** 2
    assert data["p2_ordered"] == pytest.approx(expected, abs=1e-12)
    assert data["p2_nto_interaction"] == pytest.approx(math.sin(0.6 * math.sin(0.75)) ** 2, abs=1e-12)


def test_compare_nto_long_kick_only_window_takes_no_rk4_step(tmp_path):
    # 6.4e9 steps at the default step, but no smooth pulse: the ordered route carries U across every piece.
    out = tmp_path / "cmp.json"
    assert run(["compare-nto", "--delta-e", "1000", "--tf", "1e5", "--pulses", "kick:0.3:1", "-o", out]) == 0
    data = json.loads(out.read_text())
    assert data["p2_ordered"] == data["p2_nto_interaction"] == pytest.approx(math.sin(0.3) ** 2, abs=1e-12)


def test_compare_nto_kick_outside_the_window_has_no_effect(tmp_path):
    out = tmp_path / "cmp.json"
    assert run(["compare-nto", "--delta-e", "1", "--tf", "1", "--pulses", "kick:0.3:5", "-o", out]) == 0
    data = json.loads(out.read_text())
    assert data["p2_ordered"] == data["p2_nto_interaction"] == data["p2_nto_schrodinger"] == 0.0


MIXED_PULSES = "kick:0.3:1.2; gaussian:0.5:2:0.15:y; kick:0.4:2:y; rect:0.2:0.5:2.5"


def test_mixed_schedule_through_compare_nto_and_pert2(tmp_path):
    base = ["--delta-e", "1", "--tf", "3", "--pulses", MIXED_PULSES]
    assert run(["compare-nto", *base, "-o", tmp_path / "cmp.json"]) == 0
    cmp = json.loads((tmp_path / "cmp.json").read_text())
    assert all(0.0 < cmp[k] < 1.0 for k in ("p2_ordered", "p2_nto_interaction", "p2_nto_schrodinger"))
    assert run(["pert2", *base, "-o", tmp_path / "pert.json"]) == 0
    pert = json.loads((tmp_path / "pert.json").read_text())
    assert pert["identity_residual"] <= TOL_QUAD2


@pytest.mark.parametrize("representation", ["schrodinger", "interaction"])
def test_evolve_records_a_mixed_schedule(tmp_path, representation):
    out = tmp_path / "mixed.csv"
    argv = ["evolve", "--delta-e", "1", "--tf", "3", "--pulses", "kick:0.3:1; gaussian:0.5:2:0.15:y",
            "--representation", representation, "--record-every", "50", "-o", out]
    assert run(argv) == 0
    _, rows, _ = read_csv(out)
    times = [r[0] for r in rows]
    assert 1.0 in times and times[-1] == 3.0
    # The kick at t = 1 transfers sin^2(0.3) before the Gaussian arrives.
    assert rows[times.index(1.0)][2] == pytest.approx(math.sin(0.3) ** 2, abs=1e-12)
    assert all(abs(r[1] + r[2] - 1.0) < 1e-8 for r in rows)


def test_evolve_recording_cap_exits_3(capsys):
    # 10^8 recorded states: rejected by the bound before any step is taken.
    assert run(["evolve", "--delta-e", "1", "--tf", "1", "--dt", "1e-8"]) == 3
    assert "record limit" in capsys.readouterr().err


def test_map_classify(tmp_path):
    out = tmp_path / "map.json"
    assert run(["map-classify", "--split-phase", "0.01", "--strength-phase", "100", "-o", out]) == 0
    assert json.loads(out.read_text())["regime"] == "kicked-adiabatic"


def test_pert2_degenerate_kicks(tmp_path):
    out = tmp_path / "pert.json"
    code = run(
        ["pert2", "--delta-e", "0.0", "--tf", "3.0", "--pulses", "kick:0.4:1.0; kick:0.6:2.0", "-o", out]
    )
    assert code == 0
    data = json.loads(out.read_text())
    flat = np.array(data["commutator_correction"], dtype=float)
    assert np.max(np.abs(flat)) == 0.0
    assert data["identity_residual"] <= 1e-13


def test_kick_limit_csv(tmp_path):
    out = tmp_path / "kl.csv"
    code = run(["kick-limit", "--preset", "2s2p", "--taus", "29.57 14.79", "-o", out])
    assert code == 0
    header, rows, _ = read_csv(out)
    assert header == ["tau", "p2_rk4_ordered", "p2_nto_interaction", "p2_nto_schrodinger"]
    assert len(rows) == 2


def test_obs_time_csv(tmp_path):
    out = tmp_path / "obs.csv"
    code = run(
        ["obs-time", "--preset", "2s2p", "--tau", "9.46", "--tf-grid", "250 500 1000", "-o", out]
    )
    assert code == 0
    header, rows, _ = read_csv(out)
    assert header == ["tf", "p2_ordered", "p2_nto_schrodinger", "p2_nto_interaction"]
    assert [r[0] for r in rows] == [250.0, 500.0, 1000.0]


def test_table_json_format(tmp_path):
    out = tmp_path / "surface.json"
    code = run(["sweep-surface", "--eps-grid", "0.5", "--phi-grid", "1.0", "--format", "json", "-o", out])
    assert code == 0
    data = json.loads(out.read_text())
    row = data["rows"][0]
    assert set(row) == {"epsilon", "phi", "p2_ordered", "p2_nto", "difference"}
    assert row["p2_ordered"] == pytest.approx((0.5 * math.sin(1.0)) ** 2, abs=1e-15)
    assert run(["sweep-surface", "--format", "yaml"]) == 2


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[map-classify]\nsplit-phase = 0.01\nstrength-phase = 0.01\n")
    out = tmp_path / "out.json"
    assert run(["map-classify", "--config", cfg, "-o", out]) == 0
    assert json.loads(out.read_text())["regime"] == "kicked-perturbative"
    # flag overrides the file value
    assert run(["map-classify", "--config", cfg, "--strength-phase", "100", "-o", out]) == 0
    assert json.loads(out.read_text())["regime"] == "kicked-adiabatic"


@pytest.mark.parametrize("line", ["record_every = 50", "output = x.csv"])
def test_config_key_that_is_not_a_flag_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[evolve]\ndelta-e = 1\ntf = 2\n{line}\n")
    assert run(["evolve", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert all(part in captured.err for part in ("[evolve]", str(cfg), line.split(" =")[0]))


def test_missing_required_number_is_named(capsys):
    assert run(["map-classify", "--split-phase", "1"]) == 2
    assert "strength-phase is required" in capsys.readouterr().err


def test_exit_codes(tmp_path):
    # 2: config errors (missing fields, bad file, unknown preset)
    assert run(["evolve"]) == 2
    assert run(["evolve", "--config", tmp_path / "missing.cfg"]) == 2
    assert run(["evolve", "--preset", "nope"]) == 2
    assert run(["compare-nto", "--delta-e", "1", "--pulses", "blob:1:2"]) == 2
    # 2: invalid numeric field
    assert run(["map-classify", "--split-phase", "abc", "--strength-phase", "1"]) == 2
    # 0: evolve records across kick times, on any axis
    assert run(["evolve", "--delta-e", "1", "--tf", "3", "--pulses", "kick:0.3:1", "-o", tmp_path / "kick.csv"]) == 0
    assert run(["evolve", "--delta-e", "1", "--tf", "3", "--pulses", "kick:0.3:1:z", "-o", tmp_path / "z.csv"]) == 0
    # 3: precondition violations inside the library
    assert run(["map-classify", "--split-phase", "-1", "--strength-phase", "1"]) == 3
    assert run(["obs-time", "--delta-e", "1", "--t-k", "-5", "--tau", "2", "--tf-grid", "-1 2"]) == 3
    # 3: observation times out of order (Schedule.observation_times), and a non-finite last one (Schedule's tf)
    for grid in ("7,6", "6,nan", "6,inf"):
        assert run(["obs-time", "--delta-e", "1", "--t-k", "5", "--tau", "0.5", "--tf-grid", grid]) == 3
    # 3: a step count past the floats, refused at the step limit before math.ceil meets inf
    assert run(["evolve", "--delta-e", "1", "--tf", "1e308", "--dt", "1e-300"]) == 3
    assert run(["obs-time", "--delta-e", "1", "--t-k", "1", "--tau", "0.2", "--tf-grid", "2,1e308"]) == 3
    # 0: a negative number in exponent form is read as a value when joined to its flag with =
    assert run(["pert2", "--delta-e=-1e-3", "--tf", "3"]) == 0
    # 5: a pulse too strong for propagate's default step leaves its result non-unitary
    for pulse in ("rect:1000:1:1", "gaussian:2000:5:0.5"):
        assert run(["compare-nto", "--delta-e", "1", "--tf", "10", "--pulses", pulse, "-o", tmp_path / "p.json"]) == 5
    # 4: unwritable output path
    assert (
        run(["map-classify", "--split-phase", "1", "--strength-phase", "1", "-o", tmp_path / "no" / "dir.json"])
        == 4
    )


def test_limit_refusal_prints_a_readable_count(capsys):
    # 1e+305 steps are refused at the step limit (exit 3) in one short line, not as a 306-digit integer.
    assert run(["evolve", "--delta-e", "1", "--tf", "1e300", "--dt", "1e-5"]) == 3
    err = capsys.readouterr().err
    assert "1e+305 steps exceed the 1000000000 step limit" in err
    assert err.count("\n") == 1 and len(err) < 120


@pytest.mark.parametrize(
    "pulse, exact", [("rect:200:1:1", 0.7621113773016374), ("gaussian:60:5:0.5", None)], ids=["rect", "gaussian"]
)
def test_compare_nto_answers_a_strong_pulse(capsys, pulse, exact):
    # The default step resolves the field strength: these runs exited 5 before it did.
    assert run(["compare-nto", "--delta-e", "1", "--tf", "10", "--pulses", pulse]) == 0
    p2 = json.loads(capsys.readouterr().out)["p2_ordered"]
    assert 0.0 <= p2 <= 1.0
    if exact is not None:  # |U_21|^2 of the exact piecewise-constant product
        assert p2 == pytest.approx(exact, abs=1e-5)


def test_config_section_that_names_no_command_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[evolv]\nrecord-every = 50\n")
    assert run(["map-classify", "--split-phase", "1", "--strength-phase", "1", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{cfg}:1" in captured.err and "[evolv]" in captured.err


def test_config_repeated_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[map-classify]\nsplit-phase = 1\nsplit-phase = 2\nstrength-phase = 1\n")
    assert run(["map-classify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{cfg}:3" in captured.err and "split-phase" in captured.err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_help_lists_each_commands_flags_on_its_line(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    lines = {line.split(":")[0].strip(): line.split()[1:] for line in out.splitlines() if ": --" in line}
    for name, (_, echoed, other) in COMMANDS.items():
        assert lines[name] == [f"--{flag}" for flag in echoed + other]


def test_prefix_of_a_flag_exits_2(capsys):
    # --tau is a prefix of kick-limit's --taus, and a flag of other commands.
    with pytest.raises(SystemExit) as info:
        main(["kick-limit", "--preset", "2s2p", "--tau", "100"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_flag_of_another_command_is_named(capsys):
    with pytest.raises(SystemExit):
        main(["map-classify", "--split-phase", "1", "--strength-phase", "1", "--dt", "0.1"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "map-classify takes no --dt" in captured.err


def test_flag_before_the_command_gives_the_same_output(capsys):
    assert main(["map-classify", "--split-phase", "0.01", "--strength-phase", "100"]) == 0
    after = capsys.readouterr().out
    assert main(["--split-phase", "0.01", "map-classify", "--strength-phase", "100"]) == 0
    assert capsys.readouterr().out == after != ""


HEADER_CASES = {
    "evolve": (
        ["evolve", "--preset", "2s2p", "--tf", "10", "--tau", "3", "--alpha", "0.2", "--dt", "0.5",
         "--record-every", "100", "--format", "csv"],
        ["alpha = 0.2", "command = evolve", "dt = 0.5", "preset = 2s2p",
         "representation = schrodinger", "tau = 3", "tf = 10"],
    ),
    "evolve-fields": (
        ["evolve", "--delta-e", "1.0", "--unit", "dimensionless", "--t0", "0", "--tf", "10",
         "--pulses", "gaussian:0.1:5:0.5", "--dt", "0.5", "--record-every", "100", "--format", "csv"],
        ["command = evolve", "delta-e = 1.0", "dt = 0.5", "pulses = gaussian:0.1:5:0.5",
         "representation = schrodinger", "t0 = 0", "tf = 10", "unit = dimensionless"],
    ),
    "sweep-surface": (
        ["sweep-surface", "--eps-grid", "0.5", "--phi-grid", "1.0 2.0", "--format", "csv"],
        ["command = sweep-surface", "eps-points = 1", "phi-points = 2"],
    ),
    "kick-limit": (
        ["kick-limit", "--preset", "2s2p", "--alpha", "0.2", "--taus", "100", "--format", "csv"],
        ["alpha = 0.2", "command = kick-limit", "preset = 2s2p"],
    ),
    "kick-limit-fields": (
        ["kick-limit", "--delta-e", "0.5", "--unit", "dimensionless", "--alpha", "0.2",
         "--t-k", "3", "--taus", "2", "--format", "csv"],
        ["alpha = 0.2", "command = kick-limit", "delta-e = 0.5", "t-k = 3", "unit = dimensionless"],
    ),
    "obs-time": (
        ["obs-time", "--preset", "2s2p", "--alpha", "0.2", "--tau", "9.46", "--tf-grid", "151 200",
         "--tf-count", "5", "--format", "csv"],
        ["alpha = 0.2", "command = obs-time", "preset = 2s2p", "tau = 9.46"],
    ),
    "obs-time-fields": (
        ["obs-time", "--delta-e", "0.5", "--unit", "dimensionless", "--alpha", "0.2", "--t-k", "3",
         "--tau", "1", "--tf-grid", "4 6", "--tf-count", "5", "--format", "csv"],
        ["alpha = 0.2", "command = obs-time", "delta-e = 0.5", "t-k = 3", "tau = 1",
         "unit = dimensionless"],
    ),
}


@pytest.mark.parametrize("argv, expected", list(HEADER_CASES.values()), ids=list(HEADER_CASES))
def test_csv_comment_header_is_pinned(tmp_path, argv, expected):
    # Every flag the command uses is given; only the echoed ones reach the header.
    out = tmp_path / "out.csv"
    assert run(argv + ["-o", out]) == 0
    _, _, comments = read_csv(out)
    assert comments == [f"# {line}" for line in expected]


@pytest.mark.parametrize("argv", [argv for argv, _ in HEADER_CASES.values()], ids=list(HEADER_CASES))
def test_config_keys_give_the_run_of_the_same_flags(tmp_path, argv):
    command, flags = argv[0], argv[1:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{command}]\n" + "".join(f"{k[2:]} = {v}\n" for k, v in zip(flags[::2], flags[1::2])))
    assert run(argv + ["-o", tmp_path / "flags.csv"]) == 0
    assert run([command, "--config", cfg, "-o", tmp_path / "file.csv"]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_header_from_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[kick-limit]\ndelta-e = 0.5\nt-k = 3\ntaus = 2 1\n")
    out = tmp_path / "out.csv"
    assert run(["kick-limit", "--config", cfg, "-o", out]) == 0
    _, rows, comments = read_csv(out)
    assert comments == ["# command = kick-limit", "# delta-e = 0.5", "# t-k = 3"]
    assert len(rows) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["obs-time", "--dt", "1"],
        ["map-classify", "--preset", "2s2p"],
        ["sweep-surface", "--tau", "3"],
        ["kick-limit", "--pulses", "kick:0.1:1"],
        ["compare-nto", "--format", "csv"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_flag_of_another_command_exits_2(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--delta-e", "1.0"],
        ["evolve", "--unit", "ev_ps"],
        ["compare-nto", "--t0", "0"],
        ["pert2", "--pulses", "gaussian:0.1:150:9.46"],
        ["kick-limit", "--t-k", "150", "--taus", "10"],
        ["obs-time", "--delta-e", "0.5", "--tf-grid", "200"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_preset_rejects_the_inputs_it_fixes(capsys, argv):
    assert run(argv[:1] + ["--preset", "2s2p"] + argv[1:]) == 2
    assert f"fixes {argv[1][2:]}" in capsys.readouterr().err


def test_preset_rejects_fixed_input_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[kick-limit]\npreset = 2s2p\ndelta-e = 0.5\ntaus = 10\n")
    assert run(["kick-limit", "--config", cfg]) == 2
    assert "fixes delta-e" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--tau", "3"],
        ["compare-nto", "--alpha", "9"],
        ["pert2", "--tau", "3", "--alpha", "9"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_tau_and_alpha_without_preset_exit_2(capsys, argv):
    schedule = ["--delta-e", "1", "--tf", "2", "--pulses", "gaussian:0.1:1:0.2"]
    assert run(argv[:1] + schedule + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "--pulses" in err and all(f"{flag[2:]}" in err for flag in argv[1::2])


def test_tau_without_preset_from_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[evolve]\ndelta-e = 1\ntf = 2\npulses = gaussian:0.1:1:0.2\ntau = 3\n")
    assert run(["evolve", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "tau" in err and "--pulses" in err


@pytest.mark.parametrize("count", ["-1", "0", "1"])
def test_obs_time_tf_count_below_two_exits_2(capsys, count):
    argv = ["obs-time", "--delta-e", "1", "--t-k", "0", "--tau", "1", "--tf-count", count]
    assert run(argv) == 2
    assert "tf-count" in capsys.readouterr().err


def test_obs_time_tf_count_above_the_record_limit_exits_2(monkeypatch, capsys):
    # Refused before the grid is built: each point would be a recorded row of one evolve.
    monkeypatch.setattr("kickedqubit.cli.MAX_RECORDS", 10)
    assert run(["obs-time", "--delta-e", "1", "--t-k", "0", "--tau", "1", "--tf-count", "11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tf-count" in captured.err


def test_sweep_surface_above_the_record_limit_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("kickedqubit.diagnostics.MAX_RECORDS", 5)
    assert run(["sweep-surface", "--eps-grid", "0.1 0.2", "--phi-grid", "1 2 3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2 x 3 surface points exceed the 5 record limit" in captured.err


def test_obs_time_tf_count_two_gives_one_row(tmp_path):
    out = tmp_path / "obs.csv"
    assert run(["obs-time", "--delta-e", "1", "--t-k", "0", "--tau", "1", "--tf-count", "2", "-o", out]) == 0
    _, rows, _ = read_csv(out)
    assert [r[0] for r in rows] == [6.0 * math.pi]


def test_obs_time_pulse_ending_before_t0_transfers_nothing(tmp_path):
    # The window [0, tf] truncates the pulse on [-8, -2] to nothing.
    out = tmp_path / "obs.csv"
    assert run(["obs-time", "--delta-e", "1", "--t-k", "-5", "--tau", "0.5", "--tf-grid", "1 2", "-o", out]) == 0
    _, rows, _ = read_csv(out)
    assert [r[:2] for r in rows] == [[1.0, 0.0], [2.0, 0.0]]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["kick-limit", "--delta-e", "0"], "--taus"),
        (["obs-time", "--delta-e", "0", "--t-k", "1"], "--tf-grid"),
    ],
    ids=["kick-limit", "obs-time"],
)
def test_zero_splitting_without_grid_exits_2(capsys, argv, flag):
    assert run(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["kick-limit", "--delta-e", "0", "--t-k", "3", "--taus", "1"],
        ["obs-time", "--delta-e", "0", "--t-k", "1", "--tau", "0.5", "--tf-grid", "3"],
    ],
    ids=["kick-limit", "obs-time"],
)
def test_zero_splitting_with_explicit_grid_runs(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert run(argv + ["-o", out]) == 0
    _, rows, _ = read_csv(out)
    assert len(rows) == 1


def test_unstable_step_exits_5_without_output(capsys):
    # dt far above the free period: RK4 overflows to inf, then nan.
    argv = ["evolve", "--delta-e", "1000", "--tf", "4", "--dt", "0.01", "--record-every", "20"]
    assert run(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["map-classify", "--split-phase", "nan", "--strength-phase", "1"],
        ["map-classify", "--split-phase", "inf", "--strength-phase", "1"],
        ["sweep-surface", "--eps-grid", "nan", "--phi-grid", "1"],
        ["sweep-surface", "--eps-grid", "0.5", "--phi-grid", "nan"],
    ],
    ids=["split-nan", "split-inf", "eps-nan", "phi-nan"],
)
def test_non_finite_input_exits_3_without_output(capsys, argv):
    # These printed NaN or Infinity, which is not JSON, or a row of nan, and exited 0.
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # The default step still leaves U 3.5e-6 from unitary under this pulse.
        (["obs-time", "--delta-e", "1", "--alpha", "2000", "--tau", "0.5", "--t-k", "5", "--tf-count", "4"],
         "unitarity defect"),
        # Rounding in the gap integrand exceeds the gap tolerance at this strength: refused at the node bound.
        (["pert2", "--delta-e", "1", "--tf", "400", "--pulses", "gaussian:100000:200:30; rect:100000:50:200"],
         "nodes in one call"),
    ],
    ids=["obs-time-collapsed", "pert2-interval-bound"],
)
def test_numeric_failure_exits_5_without_output(capsys, argv, message):
    assert run(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_obs_time_answers_a_strong_pulse(tmp_path):
    # At alpha = 200 the default step used to collapse U, and the run exited 5.
    out = tmp_path / "obs.csv"
    argv = ["obs-time", "--delta-e", "1", "--alpha", "200", "--tau", "0.5", "--t-k", "5", "--tf-count", "4"]
    assert run(argv + ["-o", out]) == 0
    _, rows, _ = read_csv(out)
    ordered = [r[1] for r in rows]
    assert 0.0 < ordered[0] < 1.0 and max(ordered) - min(ordered) == 0.0  # all times lie beyond the support


def test_pert2_strong_smooth_schedule_still_answers(capsys):
    # The same schedule at alpha = 1000 needs 384 nodes in its widest integrand call, inside the bound.
    argv = ["pert2", "--delta-e", "1", "--tf", "400", "--pulses", "gaussian:1000:200:30; rect:1000:50:200"]
    assert run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["identity_residual"] <= TOL_QUAD2


def test_two_runs_build_one_parser(monkeypatch, capsys):
    # The parser is built once per process; a failed run leaves it fit for the next.
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert main(["map-classify", "--split-phase", "1", "--strength-phase", "1"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["map-classify", "--tau", "3"])
    assert exc.value.code == 2
    assert main(["map-classify", "--split-phase", "0.1", "--strength-phase", "0.1"]) == 0
    assert built == ["kickedqubit"]
    assert cli.build_parser() is cli.build_parser()
    capsys.readouterr()
