"""CLI: config parsing, round trips, report formats, determinism, errors."""

import json
import os
import subprocess
import sys

import pytest

import bosegas
from bosegas.cli import (RunConfig, main, parse_config, run,
                         serialize_config)
from bosegas.errors import ParseError, UnknownKey


def strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("# timestamp"))


def test_parse_basic():
    cfg = parse_config(["scatter", "--potential", "hardcore:r0=1"])
    assert cfg.command == "scatter"
    assert cfg.parameters["potential"] == "hardcore:r0=1"
    assert cfg.parameters["mu"] == 1.0          # default applied
    cfg2 = parse_config(["--command", "scatter", "--potential",
                         "hardcore:r0=1", "--mu", "2.0"])
    assert cfg2.parameters["mu"] == 2.0


def test_parse_unknown_key_suggests():
    with pytest.raises(UnknownKey) as err:
        parse_config(["scatter", "--potential", "hardcore:r0=1", "--ro", "1"])
    assert "r" in str(err.value)
    with pytest.raises(UnknownKey) as err:
        parse_config(["gp", "--coupling", "1", "--grid-pionts", "100"])
    assert "grid_points" in str(err.value)


def test_parse_missing_required():
    with pytest.raises(ParseError):
        parse_config(["gp"])
    with pytest.raises(ParseError):
        parse_config([])
    with pytest.raises(ParseError):
        parse_config(["warp-drive"])


def test_config_file_and_flag_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "scatter",
                                "potential": "hardcore:r0=1", "mu": 2.0}))
    cfg = parse_config(["--config", str(path)])
    assert cfg.parameters["mu"] == 2.0
    over = parse_config(["--config", str(path), "--mu", "0.5"])
    assert over.parameters["mu"] == 0.5          # flag wins
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "scatter",
                               "potential": "hardcore:r0=1", "ro": 1}))
    with pytest.raises(UnknownKey):
        parse_config(["--config", str(bad)])


def test_round_trip_identity(tmp_path):
    cfg = RunConfig(command="bounds",
                    parameters={"dim": 3, "y_grid": "1e-10:1e-6:5:log",
                                "rho_a2_grid": "1e-30:1e-6:25:log",
                                "lower_c": 8.9},
                    output_path="out.csv", output_format="csv",
                    abs_tol=1e-10, rel_tol=None)
    path = tmp_path / "round.json"
    path.write_text(serialize_config(cfg))
    again = parse_config(["--config", str(path)])
    assert again == cfg


def test_scatter_report_values():
    cfg = parse_config(["scatter", "--potential", "hardcore:r0=1"])
    report = run(cfg)
    row = report.rows[0]
    assert row["a"] == pytest.approx(1.0, abs=1e-10)
    assert row["s"] == pytest.approx(1.0, abs=1e-10)
    assert len(report.columns) == len(row)


def test_bounds_row_count_and_csv():
    cfg = parse_config(["bounds", "--y-grid", "1e-12:1e-4:50:log"])
    report = run(cfg)
    assert len(report.rows) == 50
    for row in report.rows:
        assert row["lower_ratio"] <= 1.0 <= row["dyson_upper"]
        assert 0.0 <= row["cell_lower_ratio"] <= 1.0
    csv_text = report.to_csv()
    header = [ln for ln in csv_text.splitlines()
              if not ln.startswith("#")][0]
    assert header.split(",")[0] == "Y"
    # constant column count across rows
    body = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    assert len({ln.count(",") for ln in body}) == 1


def test_csv_determinism():
    args = ["bounds", "--y-grid", "1e-12:1e-4:7:log"]
    one = strip_timestamp(run(parse_config(args)).to_csv())
    two = strip_timestamp(run(parse_config(args)).to_csv())
    assert one == two


def test_json_format():
    cfg = parse_config(["foldy", "--rho-grid", "1:16:2:log",
                        "--format", "json"])
    payload = json.loads(run(cfg).to_json())
    assert payload["metadata"]["command"] == "foldy"
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["closed_over_displayed"] == pytest.approx(2.0)


def test_main_exit_codes(tmp_path):
    out = tmp_path / "row.csv"
    assert main(["scatter", "--potential", "hardcore:r0=1",
                 "--output", str(out)]) == 0
    assert out.exists()
    assert main(["scatter", "--potentail", "x"]) == 2       # unknown key
    assert main(["scatter", "--potential", "nonsense:r0=1"]) == 3
    assert main(["gp", "--coupling", "-1"]) == 3            # named error
    assert main(["scatter", "--potential", "squarewell:r0=1,v0=1",
                 "--mu", "0"]) == 3
    assert main(["scatter", "--potential", "hardcore:r0=1",
                 "--grid-points", "64"]) == 2               # not a scatter key
    assert main([]) == 0                                     # help


def test_gp_invalid_inputs_exit_3(capsys):
    for argv in (["gp", "--coupling", "nan"],
                 ["gp", "--n", "nan", "--coupling", "1"],
                 ["gp", "--coupling", "inf"],
                 ["gp", "--coupling", "1", "--mu-const", "-1"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "DomainError" in err and "Traceback" not in err


def test_gp_profile_export(tmp_path):
    prof = tmp_path / "prof.csv"
    cfg = parse_config(["gp", "--coupling", "0.1", "--grid-points", "700",
                        "--profile-out", str(prof)])
    run(cfg)
    text = prof.read_text()
    assert text.startswith("# trap")
    assert "r,phi,rho" in text


def test_two_dimensional_commands():
    row = run(parse_config(["scatter", "--potential", "hardcore:r0=1",
                            "--dim", "2"])).rows[0]
    assert row["a"] == pytest.approx(1.0, abs=1e-10)
    assert row["s"] == 1.0
    row = run(parse_config(["tf", "--coupling", "1", "--dim", "2"])).rows[0]
    assert row["mu_tf"] == pytest.approx(4.0, rel=1e-10)
    rows = run(parse_config(["bounds", "--dim", "2", "--rho-a2-grid",
                             "1e-20:1e-8:4:log"])).rows
    assert len(rows) == 4
    for r in rows:
        assert r["lower"] <= r["leading"] <= r["upper"]
    rows = run(parse_config(["gp-tf-limit", "--dim", "2", "--g-grid",
                             "30:300:2:log", "--grid-points", "800"])).rows
    assert rows[1]["ratio"] < rows[0]["ratio"]


def test_cli_subprocess_entry():
    # the child imports the same bosegas as this process, installed or not
    src = os.path.dirname(os.path.dirname(bosegas.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bosegas.cli", "bogolubov"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "fock_energy" in proc.stdout


_COLD_PATH_PROBE = """
import contextlib, io, json, sys
from bosegas import cli
runs = [["scatter", "--potential", "hardcore:r0=1"],
        ["scatter", "--potential", "squarewell:r0=1,v0=10", "--mu", "2"],
        ["bounds", "--y-grid", "1e-12:1e-4:5:log"],
        ["tf", "--coupling", "100"],
        ["foldy", "--rho-grid", "1:16:2:log"],
        ["scatter", "--potentail", "x"],
        ["gp", "--coupling", "-1"]]
codes = []
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in runs:
        codes.append(cli.main(argv))
    cold = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    codes.append(cli.main(["gp", "--coupling", "1", "--grid-points", "300"]))
gp = sorted(m for m in sys.modules
            if m.startswith(("scipy.optimize", "scipy.integrate")))
print(json.dumps({"codes": codes, "cold": cold, "gp": gp}))
"""


def test_cold_commands_do_not_load_scipy():
    # sys.modules of this process already holds scipy, so look in a fresh one
    src = os.path.dirname(os.path.dirname(bosegas.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH_PROBE], capture_output=True,
        text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0, 0, 0, 2, 3, 0]
    assert seen["cold"] == []
    assert seen["gp"] == []
