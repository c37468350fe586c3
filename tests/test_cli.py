"""Command line behavior: end to end via subprocess, and in process where a
solver failure is injected."""

import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mhdes
from mhdes import cli, critical, orr_evp
from mhdes.cli import (CURVE_HEADER, NEUTRAL_HEADER, PROFILE_HEADER,
                       RunConfig, _fmt)
from mhdes.errors import NumericalError


def run_python(*args):
    # the child imports the same mhdes as this process, whether or not
    # PYTHONPATH names the source tree
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mhdes.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env)


def run_cli(*args):
    return run_python("-m", "mhdes", *args)


def parse_csv(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_profile_wall_driven_example(tmp_path):
    out = tmp_path / "profile.csv"
    args = ("profile", "--flow", "couette", "--ha", "1", "--n", "50",
            "--out", str(out))
    assert run_cli(*args).returncode == 0
    header, rows = parse_csv(out.read_text())
    assert header == list(PROFILE_HEADER)
    assert len(rows) == 51
    assert rows[0][0] == _fmt(1.0)
    assert rows[0][1] == _fmt(1.0)          # U(1) = 1
    assert rows[0][4] == _fmt(0.0)          # Bbar(1) = 0
    first = out.read_bytes()
    out2 = tmp_path / "again.csv"
    run_cli(*args[:-1], str(out2))
    assert out2.read_bytes() == first


def test_profile_pressure_driven_centerline():
    proc = run_cli("profile", "--flow", "hartmann", "--ha", "2", "--n", "50")
    header, rows = parse_csv(proc.stdout)
    mid = min(rows, key=lambda r: abs(float(r[0])))
    assert abs(float(mid[0])) == 0.0
    assert abs(float(mid[1]) - 1.0) <= 1e-3


def test_profile_uses_first_hartmann_number():
    one = run_cli("profile", "--ha", "2", "--n", "8").stdout
    two = run_cli("profile", "--ha", "2", "5", "--n", "8").stdout
    assert one == two


def test_curve_blocks_and_grid():
    proc = run_cli("curve", "--flow", "couette", "--ha", "0.1", "1", "10",
                   "50", "--a-points", "6", "--n", "50")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == list(CURVE_HEADER)
    assert len(rows) == 24
    ha_seq = [float(r[1]) for r in rows]
    assert ha_seq == sorted(ha_seq)
    grid = np.geomspace(0.2, 4.0, 6)
    for block in range(4):
        for i, row in enumerate(rows[6 * block:6 * block + 6]):
            assert abs(float(row[3]) - grid[i]) <= 1e-15 * grid[i]
            re_a = float(row[4])
            assert math.isfinite(re_a) and re_a > 0


def test_curve_default_grid_has_forty_points():
    assert RunConfig().a_points == 40
    proc = run_cli("curve", "--ha", "1", "--n", "20")
    _, rows = parse_csv(proc.stdout)
    assert [float(r[3]) for r in rows] == np.geomspace(0.2, 4.0, 40).tolist()


def test_curve_degenerate_grid():
    proc = run_cli("curve", "--ha", "0.5", "--a-points", "1", "--n", "20")
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 1
    assert float(rows[0][3]) == 0.2


def test_json_format_mirrors_csv():
    args = ("curve", "--ha", "1", "--a-points", "3", "--n", "20")
    csv_rows = parse_csv(run_cli(*args).stdout)[1]
    payload = json.loads(run_cli(*args, "--format", "json").stdout)
    assert payload["columns"] == list(CURVE_HEADER)
    assert len(payload["rows"]) == len(csv_rows)
    for jrow, crow in zip(payload["rows"], csv_rows):
        assert jrow[0] == crow[0]
        for jv, cv in zip(jrow[1:], crow[1:]):
            assert float(jv) == float(cv)


def test_neutral_vanishing_coupling_classical_point():
    proc = run_cli("neutral", "--flow", "couette", "--ha", "1e-6",
                   "--n", "50")
    header, rows = parse_csv(proc.stdout)
    assert header == list(NEUTRAL_HEADER)
    assert len(rows) == 1
    row = rows[0]
    assert row[6] == "true"
    assert int(row[5]) == 50
    a_crit, re_e = float(row[3]), float(row[4])
    assert abs(re_e - 44.3) <= 0.01 * 44.3
    # gap/pi wavenumber units for comparison with the classical tables
    assert abs(a_crit * 2.0 / np.pi - 1.21) <= 0.01 * 1.21


def test_neutral_sweep_all_converged():
    proc = run_cli("neutral", "--ha", "0.1", "1", "10", "50",
                   "--a-max", "30", "--n", "50")
    _, rows = parse_csv(proc.stdout)
    assert [float(r[1]) for r in rows] == [0.1, 1.0, 10.0, 50.0]
    assert all(r[6] == "true" for r in rows)
    assert float(rows[3][4]) > float(rows[0][4])


def test_neutral_empty_hartmann_list_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"Ha_list": []}')
    proc = run_cli("neutral", "--config", str(cfg))
    assert proc.returncode == 2
    assert "Ha_list" in proc.stderr


def test_verify_default_configuration_passes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--out", str(out))
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["seed"] == 42
    assert len(report["points"]) == 4
    for point in report["points"]:
        assert point["passed"]
        assert list(point["checks"]) == ["ratio_identity", "random_trial_bound",
                                         "decay_below_threshold", "poincare",
                                         "fd_oracle"]


def test_verify_runs_fd_oracles_after_spectral_checks(monkeypatch, capsys):
    # the NumPy-side solves and the SciPy-side FD oracles never alternate
    calls = []
    for name in ("solve_max_m", "fd_oracle"):
        func = getattr(cli, name)

        def recorded(*args, func=func, name=name, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    assert cli.main(["verify", "--ha", "0.5", "2", "--n", "30"]) == 0
    assert calls == ["solve_max_m"] * 2 + ["fd_oracle"] * 2
    report = json.loads(capsys.readouterr().out)
    assert [p["Ha"] for p in report["points"]] == [0.5, 2.0]


def test_verify_perturbed_claim_fails(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--ha", "1", "--n", "50",
                   "--perturb-m-rel=-1e-3", "--out", str(out))
    assert proc.returncode == 4
    report = json.loads(out.read_text())
    assert report["passed"] is False
    bound = report["points"][0]["checks"]["random_trial_bound"]
    assert bound["passed"] is False
    falsification = bound["report"]
    assert falsification["trial_index"] == -1
    assert falsification["ratio"] > falsification["m_claimed"]
    assert "field_coefficients" in falsification


def test_verify_reports_are_deterministic():
    one = run_cli("verify", "--ha", "1", "--n", "50").stdout
    two = run_cli("verify", "--ha", "1", "--n", "50").stdout
    assert one == two


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(RunConfig(flow="hartmann", Ha_list=(2.0,), N=20,
                             a_points=3).to_json())
    base = run_cli("curve", "--config", str(cfg))
    _, rows = parse_csv(base.stdout)
    assert len(rows) == 3 and rows[0][0] == "hartmann"
    over = run_cli("curve", "--config", str(cfg), "--a-points", "2")
    _, rows = parse_csv(over.stdout)
    assert len(rows) == 2


def test_config_round_trip_is_lossless():
    cfg = RunConfig(flow="hartmann", Ha_list=(0.5, 3.0), Pm=0.2, a_min=0.3,
                    a_max=2.5, a_points=7, N=24, seed=9,
                    output_path="out.csv", format="json")
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_bad_config_files_are_usage_errors(tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text('{"nope": 1}')
    assert run_cli("profile", "--config", str(bad_key)).returncode == 2
    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    assert run_cli("profile", "--config", str(not_json)).returncode == 2
    assert run_cli("profile", "--config",
                   str(tmp_path / "missing.json")).returncode == 2
    # counts that int() would truncate or read as 1, and Hartmann lists
    # that are not 1-D sequences of numbers, are refused, not run
    for cmd, text, why in (
            ("curve", '{"N": 20.9, "a_points": 3.5, "Ha_list": [1.0]}',
             "N must be an integer, got 20.9"),
            ("verify", '{"seed": 2.5}', "seed must be an integer, got 2.5"),
            ("profile", '{"N": true}', "N must be an integer, got True"),
            ("profile", '{"Ha_list": "abc"}', "Ha_list must hold numbers"),
            ("profile", '{"Ha_list": [[1.0, 2.0]]}', "Ha_list must be a")):
        cfg = tmp_path / "bad_value.json"
        cfg.write_text(text)
        proc = run_cli(cmd, "--config", str(cfg))
        assert proc.returncode == 2 and proc.stdout == ""
        assert why in proc.stderr


@pytest.mark.parametrize("args", [
    (),
    ("profile", "--flow", "taylor"),
    ("curve", "--a-min", "5", "--a-max", "1", "--n", "20"),
    ("profile", "--n", "4"),
    ("curve", "--ha", "-1", "--n", "20"),
    ("neutral", "--ha", "0", "--n", "20"),
    ("neutral", "--ha", "1e9", "--n", "20"),
])
def test_usage_errors_exit_two(args):
    assert run_cli(*args).returncode == 2


def test_a_points_belongs_to_curve(tmp_path, capsys):
    # only curve has a wavenumber grid; the other commands reject the flag
    # instead of ignoring it, and a config cannot unset the grid size
    for cmd in ("neutral", "profile", "verify"):
        with pytest.raises(SystemExit) as exc:
            cli.main([cmd, "--ha", "1", "--n", "8", "--a-points", "5"])
        assert exc.value.code == 2
        assert "--a-points" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"a_points": null}')
    assert cli.main(["curve", "--config", str(cfg), "--n", "8"]) == 2
    assert "a_points" in capsys.readouterr().err


def test_failed_points_print_nan_and_exit_three(monkeypatch, capsys, caplog):
    # one failing Ha (neutral) or one failing a (curve) is printed as a NaN
    # row, every other row is unchanged, the exit code is 3, and the failed
    # Ha is logged once with its flow
    a_mid = float(np.geomspace(0.2, 4.0, 3)[1])
    cases = (
        (("neutral", "--ha", "0.5", "1", "2", "--n", "20"), critical,
         lambda pen: pen.params.Ha == 1.0, "couette Ha=1 "),
        (("curve", "--ha", "0.5", "2", "--a-points", "3", "--n", "20"),
         orr_evp, lambda pen: pen.params.Ha == 0.5 and pen.a == a_mid,
         "couette Ha=0.5 "),
    )
    caplog.set_level(logging.WARNING, logger="mhdes")
    for args, module, fails, tag in cases:
        caplog.clear()
        assert cli.main(list(args)) == 0
        assert not caplog.records
        _, clean = parse_csv(capsys.readouterr().out)
        solve = module.solve_max_m

        def patched(pencil, solve=solve, fails=fails):
            if fails(pencil):
                raise NumericalError("injected failure")
            return solve(pencil)

        with monkeypatch.context() as mp:
            mp.setattr(module, "solve_max_m", patched)
            code = cli.main(list(args))
        _, rows = parse_csv(capsys.readouterr().out)
        assert code == 3
        assert len(rows) == len(clean)
        assert all(math.isfinite(float(r[4])) for r in clean)
        assert [r for r in rows if r[4] == "NaN"] == [rows[1]]
        assert rows[:1] + rows[2:] == clean[:1] + clean[2:]
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert warnings[0].startswith(tag) and "injected failure" in warnings[0]


def test_failed_hartmann_number_warns_once_with_prefix(monkeypatch, capsys):
    # neutral and curve report a wholly failed Ha through the same channel
    # and prefix, and repeated in-process runs do not stack handlers
    cases = (
        (("neutral", "--ha", "0.5", "1", "--n", "20"), critical,
         "threshold search failed"),
        (("curve", "--ha", "0.5", "1", "--a-points", "3", "--n", "20"),
         orr_evp, "curve failed"),
    )
    for args, module, what in cases:
        solve = module.solve_max_m

        def patched(pencil, solve=solve):
            if pencil.params.Ha == 1.0:
                raise NumericalError("injected failure")
            return solve(pencil)

        outs = []
        with monkeypatch.context() as mp:
            mp.setattr(module, "solve_max_m", patched)
            for _ in range(2):
                assert cli.main(list(args)) == 3
                captured = capsys.readouterr()
                outs.append(captured.out)
                err = captured.err.splitlines()
                assert all(line.startswith("mhdes: ") for line in err)
                warnings = [line for line in err
                            if line.startswith("mhdes: warning: ")]
                assert len(warnings) == 1
                assert warnings[0].startswith(
                    f"mhdes: warning: couette Ha=1 Pm=0.1: {what}: ")
                assert "injected failure" in warnings[0]
        assert outs[0] == outs[1]


def test_solver_commands_never_import_scipy():
    # SciPy serves only the verify layer's finite-difference oracle
    code = "\n".join((
        "import sys",
        "from mhdes import Params, cli, minimize_over_a",
        "for cmd in ('profile', 'curve', 'neutral'):",
        "    grid = ['--a-points', '3'] if cmd == 'curve' else []",
        "    assert cli.main([cmd, '--ha', '1', *grid, '--n', '20',",
        "                     '--out', sys.argv[1]]) == 0",
        "minimize_over_a(Params(flow='hartmann', Ha=1.0, Pm=0.1), N=20)",
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))",
        "assert not loaded, loaded",
    ))
    proc = run_python("-c", code, os.devnull)
    assert proc.returncode == 0, proc.stderr


def test_float_formatting():
    assert _fmt(float("nan")) == "NaN"
    assert _fmt(1.0) == "1.0000000000000000e+00"
    assert _fmt(0.1) == "1.0000000000000001e-01"
