"""CLI: config parsing, round trips, report formats, determinism, errors."""

import csv
import importlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bosegas
from bosegas.cli import (_RUNNERS, _SCHEMAS, Report, RunConfig,
                         _format_column, _parse_sweep, main, parse_config,
                         run, serialize_config)
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


def test_config_file_null_leaves_the_key_unset(tmp_path, capsys):
    # a null coupling once reached gp_minimize and ended in a TypeError
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"command": "gp", "coupling": None}))
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ParseError: command 'gp' requires --coupling" in err
    path.write_text(json.dumps({"command": "scatter", "abs_tol": None,
                                "potential": "hardcore:r0=1", "output": None,
                                "mu": None}))
    cfg = parse_config(["--config", str(path)])
    assert cfg.parameters == {"potential": "hardcore:r0=1", "mu": 1.0,
                              "dim": 3}
    assert cfg.output_path is None


def test_round_trip_identity(tmp_path):
    bounds = RunConfig(command="bounds",
                       parameters={"dim": 3, "y_grid": "1e-10:1e-6:5:log",
                                   "rho_a2_grid": "1e-30:1e-6:25:log",
                                   "lower_c": 8.9},
                       output_path="out.csv", output_format="csv")
    scatter = RunConfig(command="scatter",
                        parameters={"potential": "squarewell:r0=1,v0=2",
                                    "mu": 1.0, "dim": 3, "abs_tol": 1e-10},
                        output_path="out.csv", output_format="csv")
    for cfg in (bounds, scatter):
        path = tmp_path / "round.json"
        path.write_text(serialize_config(cfg))
        again = parse_config(["--config", str(path)])
        assert again == cfg


def test_tolerance_keys_only_for_scatter(capsys):
    cfg = parse_config(["scatter", "--potential", "squarewell:r0=1,v0=2",
                        "--abs-tol", "1e-11", "--rel-tol", "1e-9"])
    assert (cfg.parameters["abs_tol"], cfg.parameters["rel_tol"]) \
        == (1e-11, 1e-9)
    assert run(cfg).rows[0]["converged"]
    for argv in (["bounds", "--rel-tol", "5"],
                 ["gp", "--coupling", "1", "--abs-tol", "-3"],
                 ["tf", "--coupling", "1", "--rel-tol", "1e-3"],
                 ["verify", "--abs-tol", "1e-8"]):
        assert main(argv) == 2
        assert "UnknownKey" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--abs-tol", "1e-13"],
                                   ["--rel-tol", "1e-11"]])
def test_missing_tolerance_keeps_its_default(capsys, flags):
    # a missing flag once read as 0: --rel-tol alone exited 3 with
    # NonFiniteRhs, and --abs-tol alone solved with rel_tol = 0
    def body(extra):
        assert main(["scatter", "--potential", "squarewell:r0=1,v0=10",
                     *extra]) == 0
        return [ln for ln in capsys.readouterr().out.splitlines()
                if not ln.startswith("#")]

    assert body(flags) == body([])


def test_vanishing_well_reports_a_plus_zero(capsys):
    # the ODE once ran for v = 0 and gave a = -0.0
    assert main(["scatter", "--potential", "squarewell:r0=1,v0=0"]) == 0
    body = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert body[1] == '"squarewell:r0=1,v0=0",3,1.0,0.0,nan,0.0,True'


def test_scatter_tiny_positive_a_reports_nan_s(capsys):
    # 0 < a <= 1e-12 * range: kinetic_fraction leaves s undefined
    argv = ["scatter", "--potential", "squarewell:r0=0.1,v0=1e-12"]
    row = run(parse_config(argv)).rows[0]
    assert 0.0 < row["a"] < 1e-12 * 0.1
    assert math.isnan(row["s"])
    assert main(argv) == 0
    assert ",nan," in capsys.readouterr().out


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


def _row_by_row_bounds(y, c=8.9):
    """Oracle: one 3D bounds row evaluated the way the report used to be,
    one Y at a time with scalar arithmetic (Python floats and libm powers;
    numpy only for the cube root of the upper bound and the numpy-scalar
    arithmetic after it), independent of the array code in bosegas."""
    lower = 1.0 - c * y ** (1.0 / 17.0)
    # cell method at the unit-scale instantiation rho = mu = 1, a from Y
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    y_cell = 4.0 * math.pi * 1.0 * a ** 3 / 3.0
    eps = 1.0 * y_cell ** (1.0 / 17.0)
    ell = a / (1.0 * y_cell ** (6.0 / 17.0))
    r_soft = (a ** 3 + 1.0 * y_cell ** (3.0 / 17.0) * ell ** 3) ** (1.0 / 3.0)
    n = 4.0 * 1.0 * ell ** 3
    cell = 0.0
    if 0.0 < eps < 1.0 and a < r_soft < 0.5 * ell and not n < 2:
        shell = r_soft ** 3 - a ** 3
        denom = eps / ell ** 2 - 4.0 * a / ell ** 3 * n * (n - 1.0)
        temple = math.inf if denom <= 0 else \
            (3.0 / math.pi) * a * n / (shell * denom)
        terms = (eps, 1.0 / (1.0 * ell ** 3), 2.0 * r_soft / ell,
                 4.0 * math.pi / 3.0 * (4.0 * 1.0) * shell, temple)
        if not any(t >= 1.0 for t in terms):
            local = 1.0 + 4.0 * math.pi / 3.0 * (n / ell ** 3) \
                * (1.0 - 1.0 / n) * shell
            k = (1.0 - eps) * (1.0 - 2.0 * r_soft / ell) ** 3 / local \
                * (1.0 - temple)
            value = 4.0 * math.pi * 1.0 * a * 1.0 \
                * (1.0 - 1.0 / (1.0 * ell ** 3)) * max(k, 0.0)
            cell = value / (4.0 * math.pi * a)
    t = np.asarray(y, dtype=float) ** (1.0 / 3.0)
    return {
        "Y": y,
        "dyson_upper": float((1.0 - t + t ** 2 - 0.5 * t ** 3)
                             / (1.0 - t) ** 8),
        "dyson_upper_improved": float((1.0 - t ** 2 + 0.5 * t ** 3)
                                      / (1.0 - t) ** 4),
        "lower_ratio": lower,
        "lower_valid": lower > 0.0,
        "dyson_lower_const": 1.0 / (10.0 * math.sqrt(2.0)),
        "cell_lower_ratio": cell,
    }


@pytest.mark.parametrize("grid", ["1e-12:1e-4:50:log", "1e-14:0.9:4000:log",
                                  "1e-6:0.99:1001"])
def test_bounds_rows_match_row_by_row_oracle_bitwise(grid):
    rows = run(parse_config(["bounds", "--y-grid", grid])).rows
    ys = _parse_sweep(grid).tolist()
    assert len(rows) == len(ys)
    for row, y in zip(rows, ys):
        want = _row_by_row_bounds(y)
        assert list(row) == list(want)
        # repr pins every bit of a float; type() pins float vs numpy vs bool
        assert {k: (type(v), repr(v)) for k, v in row.items()} \
            == {k: (type(v), repr(v)) for k, v in want.items()}


def test_bounds_outside_unit_interval_first_row_decides(capsys):
    for grid, message in (("-1:2:4", "Y must be positive"),
                          ("2:-1:4", "upper bound valid for 0 < Y < 1")):
        assert main(["bounds", "--y-grid", grid]) == 3
        err = capsys.readouterr().err
        assert f"DomainError: {message}" in err and "Traceback" not in err


def test_sweep_rejects_nonfinite_ends():
    for text in ("nan:1e-4:3", "1e-8:inf:3:log", "-inf:1:3", "1:nan:2:log",
                 "-1e308:1e308:3", "1e-8:0:3:log", "1e-8:-1:3:log"):
        with pytest.raises(ParseError):
            _parse_sweep(text)


def test_nonfinite_sweeps_exit_2_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["bounds", "--y-grid", "nan:1e-4:3"],
                     ["bounds", "--dim", "2", "--rho-a2-grid",
                      "nan:1e-6:3:log"],
                     ["bounds", "--y-grid", "1e-8:inf:3:log"],
                     ["gp-tf-limit", "--g-grid", "10:nan:2"],
                     ["foldy", "--rho-grid", "1:inf:2"]):
            assert main(argv) == 2
            assert "ParseError" in capsys.readouterr().err


def test_nonfinite_inputs_exit_3_naming_the_input(capsys):
    for argv, name in ((["bounds", "--lower-c", "nan"], "C"),
                       (["tf", "--coupling", "inf"], "coupling"),
                       (["tf", "--coupling", "nan"], "coupling"),
                       (["tf", "--n", "nan", "--coupling", "1"], "N"),
                       (["foldy", "--mu-const", "nan"], "mu_const"),
                       (["foldy", "--rho-grid", "1:2:2", "--mu-const", "-inf"],
                        "mu_const")):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"DomainError: {name} must be finite" in err
        assert "Traceback" not in err
    for argv in (["tf", "--coupling", "1", "--mu-const", "-1"],
                 ["foldy", "--mu-const", "-1"]):
        assert main(argv) == 3
        assert "DomainError" in capsys.readouterr().err



def test_scatter_nonfinite_mu_exits_3_naming_mu(capsys):
    # --mu inf once gave a = -0.0, s = nan and converged = True with exit 0
    for mu in ("inf", "nan", "-inf"):
        assert main(["scatter", "--potential", "squarewell:r0=1,v0=1",
                     "--mu", mu]) == 3
        err = capsys.readouterr().err
        assert "DomainError: mu must be finite" in err
        assert "Traceback" not in err


def test_nonfinite_potential_specs_exit_3_without_warnings(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv, name in ((["scatter", "--potential", "hardcore:r0=inf"],
                            "core_radius"),
                           (["scatter", "--potential",
                             "squarewell:r0=1,v0=nan"], "strength"),
                           (["gp", "--trap", "harmonic:scale=inf",
                             "--coupling", "1"], "scale")):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert f"DomainError: {name} must be finite" in err
            assert "Traceback" not in err

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


def test_help_lists_every_key_with_its_default(capsys):
    assert main(["--help"]) == 0
    text = capsys.readouterr().out
    for command, schema in _SCHEMAS.items():
        # a command's block: its line and the continuation lines under it
        block = re.search(rf"^  {re.escape(command)} +(.*(\n {{15}}.*)*)",
                          text, re.M).group(1)
        for key, (_typ, default) in schema.items():
            shown = {"__required__": "required", None: "unset"}.get(
                default, default)
            assert f"--{key.replace('_', '-')} ({shown}" in block, key


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--y-grid", "1:2:1000000000000"],
     "sweep '1:2:1000000000000': needs 1 to 1000000 points"),
    (["foldy", "--rho-grid", "1:2:1000001:log"],
     "sweep '1:2:1000001:log': needs 1 to 1000000 points"),
    (["gp", "--coupling", "1", "--grid-points", "100000000000"],
     "parameter 'grid_points': 100000000000 exceeds the ceiling 100000"),
    (["gp-tf-limit", "--grid-points", "100001"],
     "parameter 'grid_points': 100001 exceeds the ceiling 100000"),
    (["bogolubov", "--n-max", "100000000000000000000"],
     "parameter 'n_max': 100000000000000000000 exceeds the ceiling 100000"),
])
def test_sizes_above_their_ceiling_exit_2(capsys, argv, message):
    # the first, third and last once ended in a traceback (exit 1): a
    # 7.28 TiB sweep, a 745 GiB grid and an array size numpy refuses
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: ParseError: {message}")


def test_infinite_size_in_a_config_file_exits_2(tmp_path, capsys):
    # json reads Infinity as a float, and int(inf) raised a bare
    # OverflowError
    path = tmp_path / "inf.json"
    path.write_text('{"command": "bogolubov", "n_max": Infinity}')
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ParseError: parameter 'n_max': "
                          "cannot convert inf to int")


@pytest.mark.parametrize("key, value, flag", [
    ("coupling", True, "true"), ("grid_points", 300.7, "300.7"),
    ("grid_points", False, "false")])
def test_config_values_parse_like_flags(tmp_path, capsys, key, value, flag):
    # a JSON bool once read as 1.0 or 0, and 300.7 grid points as 300
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"command": "gp", "coupling": 1.0,
                                key: value}))
    for argv in (["--config", str(path)],
                 ["gp", "--coupling", "1", "--" + key.replace("_", "-"),
                  flag]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: ParseError: parameter "
                              f"{key!r}: cannot convert")
    path.write_text('{"command": "gp", "coupling": 1e2, "grid_points": 3e2}')
    assert parse_config(["--config", str(path)]).parameters["grid_points"] \
        == 300


def test_sizes_at_their_ceiling_parse():
    assert _parse_sweep("1:2:1000000").size == 10 ** 6
    for argv in (["gp", "--coupling", "1", "--grid-points", "100000"],
                 ["bogolubov", "--n-max", "100000"]):
        key = argv[-2][2:].replace("-", "_")
        assert parse_config(argv).parameters[key] == 10 ** 5


def test_underflowed_scattering_length_exits_3(capsys):
    # a ~ 1.7e-925 once came out as a = -0.0, s = nan and converged = True
    assert main(["scatter", "--potential", "squarewell:r0=1e-308,v0=1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scatter: ScatteringLengthUnderflow: a = -0.0 ")


def test_gp_invalid_inputs_exit_3(capsys):
    for argv in (["gp", "--coupling", "nan"],
                 ["gp", "--n", "nan", "--coupling", "1"],
                 ["gp", "--coupling", "inf"],
                 ["gp", "--coupling", "1", "--mu-const", "-1"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "DomainError" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["gp", "--coupling", "1", "--grid-points", "0"],
     "grid needs at least 16 nodes"),
    (["gp", "--coupling", "1", "--grid-points", "-3"],
     "grid needs at least 16 nodes"),
    (["gp", "--coupling", "1e308"], "gp_minimize leaves the float range"),
    (["gp", "--coupling", "1", "--n", "1e308"],
     "gp_minimize leaves the float range"),
    (["gp", "--coupling", "1", "--n", "1e300", "--grid-points", "300"],
     "gp_minimize leaves the float range"),
    (["gp", "--trap", "harmonic:scale=1e308", "--mu-const", "1e308",
      "--coupling", "1"], "gp_minimize leaves the float range"),
    # x^s rounds to 1.0 on the whole grid: no trap left to confine the gas
    (["gp", "--trap", "power:s=1e-212,scale=1e15", "--coupling", "10",
      "--grid-points", "100"], "trap is flat on the grid"),
    (["tf", "--trap", "harmonic:scale=1e-308", "--mu-const", "1e10",
      "--coupling", "1"], "tf_solve leaves the float range"),
    (["gp-tf-limit", "--trap", "power:s=1e-212,scale=1e15",
      "--grid-points", "100"], "trap is flat on the grid"),
    (["bogolubov", "--a-value", "1e308", "--b-value", "1e307"],
     "BogolubovMode.__post_init__ leaves the float range"),
    (["bogolubov", "--b-value", "5e-324"],
     "BogolubovMode.__post_init__ leaves the float range"),
    (["bounds", "--dim", "4"], "dimension must be 2 or 3"),
    (["bounds", "--dim", "1", "--rho-a2-grid", "1e-8:1e-6:2"],
     "dimension must be 2 or 3"),
    (["bounds", "--dim", "2", "--rho-a2-grid", "-2.5:-2.5:1"],
     "rho_a2 must be positive"),
    (["tf", "--coupling", "5e-266", "--mu-const", "5e-266"],
     "need N > 0 and 0 < 8 pi mu_const coupling < inf"),
    (["foldy", "--mu-const", "1e308"], "need 1e-9 <= mu_const/rho <= 1e22"),
    (["foldy", "--rho-grid", "1e308:1e308:1", "--mu-const", "1e308"],
     "mode_integral_energy leaves the float range"),
    # the 3D integrals start at 0, so a purely relative error scale is 0
    (["scatter", "--potential", "squarewell:r0=1,v0=10", "--abs-tol", "0"],
     "abs_tol must be positive for a 3D solve"),
    # the scaled error e5 * e5 overflows although no state does: the step is
    # rejected, where it once raised a misleading NonFiniteRhs
    *((["scatter", "--potential", "squarewell:r0=1,v0=10", "--abs-tol", tol],
      "StepSizeUnderflow: step")
      for tol in ("1e-160", "1e-200", "1e-320", "5e-324")),
    # a spec is read by the library's parsers when the command runs, not by
    # parse_config: the README gives exit 3 for their DomainError
    (["scatter", "--potential", "nope"], "unknown pair potential spec 'nope'"),
    (["scatter", "--potential", "squarewell:r0=1,v0=2,r0=3"],
     "parameter 'r0' given twice in 'squarewell:r0=1,v0=2,r0=3'"),
    (["gp", "--trap", "nope", "--coupling", "1"], "unknown trap spec 'nope'"),
    # the 2D TF energy at g = 0 is 0: the ratio once divided by it; in both
    # dimensions g = 0 is named before any GP solve runs
    (["gp-tf-limit", "--dim", "2", "--g-grid", "0:10:2"],
     "g must be positive"),
    (["gp-tf-limit", "--g-grid", "0:10:2"], "g must be positive"),
])
def test_boundary_inputs_exit_3_with_a_named_error(capsys, argv, message):
    # each of these once ended in a traceback (exit 1), or in bounds'
    # case ran the 2D branch for any --dim other than 3; a message that
    # names no error is a DomainError's
    error, _, text = message.rpartition(": ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: {error or 'DomainError'}: {text}")
    assert "Traceback" not in err


def _readme_cli_examples():
    """The `bosegas ...` lines of the README's "Command line" block."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("bosegas ")]


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # a flag or command that goes must not leave a dead example behind;
    # files the examples write land in tmp_path
    examples = _readme_cli_examples()
    assert examples
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)


@pytest.mark.parametrize("trap, s, scale, coupling", [
    ("harmonic", 2.0, 1.0, 1e-30),
    ("harmonic", 2.0, 1.0, 1e-100),
    ("harmonic:scale=1e-200", 2.0, 1e-200, 100.0),
    ("harmonic:scale=1e-308", 2.0, 1e-308, 1.0),
    ("power:s=1e-3", 1e-3, 1.0, 10.0),
    ("power:s=50", 50.0, 1.0, 10.0),
])
def test_tf_closed_form_at_extreme_inputs(trap, s, scale, coupling):
    # when mu_tf was the root of a quadrature, the first four missed their
    # normalization (NoConvergence) and power:s=1e-3 left the float range
    row = run(parse_config(["tf", "--trap", trap,
                            "--coupling", repr(coupling)])).rows[0]
    # 3D, N = mu_const = 1: trap length ell = scale^(-1/(s+2)), coupling
    # g = a / ell, support radius R^(s+3) = 6 g (s+3) / s in trap units
    ell = scale ** (-1.0 / (s + 2.0))
    radius = (6.0 * (coupling / ell) * (s + 3.0) / s) ** (1.0 / (s + 3.0))
    assert row["mu_tf"] == pytest.approx(radius ** s / ell ** 2, rel=1e-12)
    assert row["identity_gap"] <= 1e-9


@pytest.mark.parametrize("argv, scale", [
    (["gp", "--trap", "harmonic:scale=1e308", "--coupling", "1"], 1e308),
    (["gp", "--n", "3.8e16", "--coupling", "3.8e16", "--mu-const", "1e-308",
      "--grid-points", "239"], 1.0),
])
def test_mean_density_in_trap_units(argv, scale):
    # the solve works in trap units; in caller units the mean density's
    # phi^4 once overflowed (exit 3)
    from bosegas.gp import gp_minimize, mean_density
    from bosegas.potentials import TrapPotential
    config = parse_config(argv)
    pars = config.parameters
    ell = (pars["mu_const"] / scale) ** 0.25
    # the same solve on the unit trap: coupling c ell^(2-d), mu_const 1
    unit = gp_minimize(TrapPotential(kind="harmonic"), pars["n"],
                       pars["coupling"] / ell,
                       grid_points=pars["grid_points"])
    rho_bar = run(config).rows[0]["rho_bar"]
    assert rho_bar == pytest.approx(ell ** -3 * mean_density(unit),
                                    rel=1e-10)


def test_zero_huge_well_has_born_integral_zero(capsys):
    # the Born integral's r0^3 once overflowed into a traceback (exit 1)
    assert main(["scatter", "--potential", "squarewell:r0=1e200,v0=0"]) == 0
    body = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    assert next(csv.DictReader(body))["born_integral"] == "0.0"


def test_overflowing_huge_well_exits_3(capsys):
    # u ~ sinh(r / sqrt(2)) overflows inside the well, a NonFiniteRhs as for
    # any overflowing well; it once surfaced as a DomainError from the Born
    # integral's r0^3, which a solve without a tail no longer computes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scatter", "--potential",
                     "squarewell:r0=1e200,v0=1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("scatter: NonFiniteRhs: ")
    assert "Traceback" not in err


def test_table_row_without_a_value_exits_3(tmp_path, capsys):
    table = tmp_path / "one_column.csv"
    table.write_text("0.5\n1.0\n")
    assert main(["scatter", "--potential", f"table:path={table}"]) == 3
    err = capsys.readouterr().err
    assert "DomainError: table" in err and "lacks a value" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["scatter", "--potential", "squarewell:r0=1,v0=2,r0=3"],
    ["gp", "--coupling", "1", "--trap", "harmonic:scale=1,scale=2"],
])
def test_repeated_spec_key_exits_with_a_named_error(argv, capsys):
    assert main(argv) in (2, 3)
    err = capsys.readouterr().err
    assert "DomainError: parameter " in err and "given twice" in err
    assert "Traceback" not in err


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


def test_lower_c_default_is_the_library_constant():
    # the schema holds a literal so that parsing a config loads no solver
    # module; `# config` writes its repr
    from bosegas import homogeneous
    default = parse_config(["bounds"]).parameters["lower_c"]
    assert repr(default) == repr(homogeneous.LOWER_RATIO_C) == "8.9"
    assert '"lower_c": 8.9' in run(parse_config(["bounds", "--y-grid",
                                                 "1e-8:1e-6:2"])).to_csv()


def _child_env():
    """The environment of a child that imports the same bosegas as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(bosegas.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "bosegas.cli", "bogolubov"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert "fock_energy" in proc.stdout


# The probe's commands in order, each with its exit code and the bosegas
# modules it adds to those loaded so far; `import bosegas.cli` loads `cli`
# and `errors` only.  A config error (exit 2) loads neither numpy nor a
# solver module.  The commands that compute on Python floats come first, so
# numpy arrives with the first `bounds` and scipy with the first GP solve.
_IMPORT_GRAPH = [
    (["gp", "--coupling", "1", "--coupling-strength", "2"], 2, []),
    (["scatter", "--potentail", "x"], 2, []),
    (["scatter", "--potential", "nope"], 3,
     ["numerics", "potentials", "scattering"]),
    (["scatter", "--potential", "hardcore:r0=1"], 0, []),
    (["scatter", "--potential", "squarewell:r0=1,v0=10", "--mu", "2"], 0, []),
    (["tf", "--coupling", "100"], 0, ["thomas_fermi"]),
    (["bogolubov", "--n-max", "40"], 0, ["bogolubov"]),
    (["bounds", "--y-grid", "1e-12:1e-4:5:log"], 0, ["homogeneous"]),
    (["bounds", "--dim", "2", "--rho-a2-grid", "1e-20:1e-8:4:log"], 0, []),
    (["foldy", "--rho-grid", "1:16:2:log"], 0, []),
    (["gp", "--coupling", "-1"], 3, ["gp"]),
    (["gp", "--coupling", "1", "--grid-points", "300"], 0, []),
    (["gp-tf-limit", "--g-grid", "10:100:2:log", "--grid-points", "300"], 0,
     []),
]

_COLD_PATH_PROBE = """
import contextlib, io, json, sys
def seen(code):
    return {"code": code, "numpy": "numpy" in sys.modules,
            "bosegas": sorted(m for m in sys.modules
                              if m.startswith("bosegas.")),
            "scipy": sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy")}
from bosegas import cli
steps = [seen(None)]
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        steps.append(seen(cli.main(argv)))
print(json.dumps(steps))
"""


def test_cold_commands_do_not_load_scipy():
    # sys.modules of this process already holds scipy, so look in a fresh one
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH_PROBE,
         json.dumps([argv for argv, _, _ in _IMPORT_GRAPH])],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout)
    loaded = {"bosegas.cli", "bosegas.errors"}
    assert steps[0] == {"code": None, "numpy": False,
                        "bosegas": sorted(loaded), "scipy": []}
    first_numpy = next(i for i, (argv, _, _) in enumerate(_IMPORT_GRAPH)
                       if argv[0] == "bounds")
    first_gp = next(i for i, (argv, code, _) in enumerate(_IMPORT_GRAPH)
                    if argv[0] == "gp" and code == 0)
    for i, ((argv, code, adds), step) in enumerate(zip(_IMPORT_GRAPH,
                                                      steps[1:])):
        loaded |= {f"bosegas.{m}" for m in adds}
        assert (step["code"], step["bosegas"]) == (code, sorted(loaded)), argv
        # no command before the first `bounds` loads numpy
        assert step["numpy"] == (i >= first_numpy), argv
        # scipy comes with the first GP solve, and only scipy.linalg
        if i < first_gp:
            assert step["scipy"] == [], argv
        assert not any(m.startswith(("scipy.optimize", "scipy.integrate"))
                       for m in step["scipy"]), argv


# Each command with the numpy and scipy it loads in a process of its own:
# only `bounds`, `foldy` and the GP commands compute with numpy arrays, and
# only the GP commands call LAPACK.
_FRESH_LOADS = [
    (["gp", "--coupling", "1", "--coupling-strength", "2"], 2, False, False),
    (["scatter", "--potentail", "x"], 2, False, False),
    (["scatter", "--potential", "nope"], 3, False, False),
    (["scatter", "--potential", "hardcore:r0=1"], 0, False, False),
    (["scatter", "--potential", "squarewell:r0=1,v0=10"], 0, False, False),
    (["tf", "--coupling", "100"], 0, False, False),
    (["bogolubov"], 0, False, False),
    (["bounds", "--y-grid", "1e-12:1e-4:5:log"], 0, True, False),
    (["foldy", "--rho-grid", "1:16:2:log"], 0, True, False),
    (["gp", "--coupling", "-1"], 3, True, False),
    (["gp", "--coupling", "1", "--grid-points", "300"], 0, True, True),
    (["gp-tf-limit", "--g-grid", "10:100:2:log", "--grid-points", "300"], 0,
     True, True),
    (["verify"], 0, True, True),
]

# Runs each command in a child forked from an interpreter that has imported
# only the standard library, so a child's sys.modules holds what its
# command loaded and nothing an earlier command did.  Two children run at a
# time; their results print in command order.
_FRESH_PROBE = """
import contextlib, io, json, os, sys
running = []
def collect():
    read, pid = running.pop(0)
    with os.fdopen(read) as fh:
        print(fh.read())
    os.waitpid(pid, 0)
for argv in json.loads(sys.argv[1]):
    if len(running) == 2:
        collect()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            from bosegas import cli
            code = cli.main(argv)
        with os.fdopen(write, "w") as fh:
            json.dump([code, "numpy" in sys.modules,
                       sorted(m for m in sys.modules
                              if m.split(".")[0] == "scipy")], fh)
        os._exit(0)
    os.close(write)
    running.append((read, pid))
while running:
    collect()
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the probe forks")
def test_each_command_loads_only_what_it_computes_with():
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROBE,
         json.dumps([argv for argv, *_ in _FRESH_LOADS])],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    seen = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(seen) == len(_FRESH_LOADS)
    for (argv, code, numpy, scipy), (got_code, got_numpy, got_scipy) \
            in zip(_FRESH_LOADS, seen):
        assert (got_code, got_numpy, bool(got_scipy)) \
            == (code, numpy, scipy), argv
        # scipy.linalg and the private modules it pulls in, nothing else
        subpackages = {m.split(".")[1] for m in got_scipy if "." in m}
        assert all(p in ("linalg", "version") or p.startswith("_")
                   for p in subpackages), (argv, subpackages)
        assert not scipy or "linalg" in subpackages, argv


_STEP_PROBE = """
import contextlib, io, json, sys
from bosegas import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
numerics = sys.modules["bosegas.numerics"]
print(json.dumps([codes, numerics._trial_step.cache_info().misses]))
"""


def test_commands_without_an_ode_compile_no_trial_step():
    # a hard core is exact, and tf and bogolubov integrate no ODE: a fresh
    # process that runs them loads numerics but generates no DOP853 step
    argvs = [["scatter", "--potential", "hardcore:r0=1"],
             ["tf", "--coupling", "100"], ["bogolubov"]]
    proc = subprocess.run(
        [sys.executable, "-c", _STEP_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], 0]


# The public names of the lazy `bosegas` namespace, by defining module.
_PUBLIC_NAMES = {
    "errors": ["BoseGasError", "DomainError"],
    "numerics": ["Tolerances", "integrate_ode", "quad"],
    "potentials": ["HARD_CORE", "PairPotential", "TrapPotential",
                   "born_integral", "pair_value", "parse_pair_potential",
                   "parse_trap_potential", "tail_integrability",
                   "trap_value"],
    "scattering": ["ScatteringSolution", "energy_integral",
                   "kinetic_fraction", "solve_zero_energy"],
    "homogeneous": ["CellConstruction", "DiluteParams", "cell_construction",
                    "cell_energy_factor", "cell_lower_bound",
                    "cell_lower_ratio", "dilute_lower_ratio",
                    "dyson_upper_ratio", "leading_energy", "lhy_energy",
                    "log_quadratic_gap", "occupation_minimum",
                    "schick_2d_bounds", "temple_bound"],
    "gp": ["GpState", "TfState", "gp_minimize", "gp_residual",
           "gp_tf_limit", "mean_density", "tf_scaling", "tf_solve"],
    "bogolubov": ["BogolubovMode", "fock_oracle",
                  "foldy_dimensionless_integral", "foldy_energy",
                  "foldy_mode_integrand", "kinetic_cutoff",
                  "two_component_scaling", "yukawa_ft"],
}


def test_lazy_namespace_resolves_every_public_name():
    for module, names in _PUBLIC_NAMES.items():
        defining = importlib.import_module(f"bosegas.{module}")
        for name in names:
            assert getattr(bosegas, name) is getattr(defining, name)
            assert name in dir(bosegas)
    assert sorted(bosegas.__all__) \
        == sorted(sum(_PUBLIC_NAMES.values(), []))
    from bosegas import PairPotential, solve_zero_energy
    assert PairPotential is bosegas.potentials.PairPotential
    assert solve_zero_energy is bosegas.scattering.solve_zero_energy
    with pytest.raises(AttributeError):
        bosegas.no_such_name
    with pytest.raises(ImportError):
        from bosegas import no_such_name  # noqa: F401


# --- report writer against independent oracles -----------------------------------

_EVERY_COMMAND = [
    ["scatter", "--potential", "hardcore:r0=1"],
    ["scatter", "--potential", "squarewell:r0=1,v0=10", "--mu", "2"],
    ["scatter", "--potential", "squarewell:r0=1,v0=0.5", "--dim", "2"],
    ["bounds", "--y-grid", "1e-300:1e-4:40:log"],
    ["bounds", "--dim", "2", "--rho-a2-grid", "1e-20:1e-8:4:log"],
    ["gp", "--coupling", "100", "--grid-points", "300"],
    ["gp", "--coupling", "30", "--dim", "2", "--trap", "power:s=4",
     "--grid-points", "300"],
    ["tf", "--coupling", "100"],
    ["tf", "--coupling", "1", "--dim", "2"],
    ["gp-tf-limit", "--g-grid", "10:1000:3:log", "--grid-points", "300"],
    ["foldy", "--rho-grid", "1:256:3:log"],
    ["bogolubov", "--a-value", "5", "--b-value", "3"],
    ["verify"],
]


def _old_fmt(value) -> str:
    """The CSV cell text of the per-cell writer the report once used."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _oracle_csv(report) -> str:
    lines = [f"# {key} = {report.metadata[key]}"
             for key in ("command", "config", "version", "timestamp")]
    lines.append("# units: " + "; ".join(f"{name} [{unit}]"
                                         for name, unit in report.columns))
    names = [name for name, _ in report.columns]
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([_old_fmt(row[name]) for name in names]
                     for row in report.rows)
    return "\n".join(lines) + "\n" + body.getvalue()


def _numpy_scalar(value):
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not serializable: {type(value)}")


def _oracle_json(report) -> str:
    payload = {"metadata": dict(report.metadata,
                                columns=[{"name": n, "unit": u}
                                         for n, u in report.columns]),
               "rows": report.rows}
    return json.dumps(payload, indent=2, default=_numpy_scalar) + "\n"


def _synthetic_report(rows):
    columns = [("x", "length"), ("flag", "bool"), ("n", "count"),
               ("text", "spec"), ("np_x", "energy"), ("np_flag", "bool"),
               ("np_n", "count"), ("mixed", "any")]
    rows = [dict(zip([name for name, _ in columns], row)) for row in rows]
    metadata = {"command": "synthetic", "config": '{"a": "b\\\\c"}',
                "version": bosegas.__version__, "timestamp": "now"}
    return Report(metadata=metadata, columns=columns, rows=rows)


_SYNTHETIC_ROWS = [
    (1.5, True, 3, 'say "hi"', np.float64(0.1), np.bool_(True),
     np.int64(7), 1),
    (math.nan, False, -2, "back\\slash", np.float64(math.nan),
     np.bool_(False), np.int64(-1), "plain"),
    (math.inf, np.bool_(True), 0, "Ω café ünï", np.float64(-math.inf),
     False, np.int64(2 ** 62), np.float32(0.1)),
    (-math.inf, True, 10 ** 20, "squarewell:r0=1,v0=10", 1e-300,
     np.bool_(True), np.int64(0), np.float64(math.inf)),
    (np.float64(-0.0), False, 1, "tab\there\nline", 5e-324, True,
     np.int64(3), None),
    (1e300, True, 2, "", math.nan, False, np.int64(4), True),
]


@pytest.fixture(scope="module")
def command_reports():
    return [run(parse_config(argv)) for argv in _EVERY_COMMAND]


@pytest.fixture
def synthetic_reports():
    return [_synthetic_report(_SYNTHETIC_ROWS),
            _synthetic_report(_SYNTHETIC_ROWS[:1]), _synthetic_report([])]


def test_reports_cover_every_command(command_reports):
    assert {r.metadata["command"] for r in command_reports} \
        == set(_RUNNERS)


def test_row_keys_are_the_column_names_in_order(command_reports):
    for report in command_reports:
        names = [name for name, _ in report.columns]
        assert report.rows
        for row in report.rows:
            assert list(row) == names


def test_json_matches_json_dumps(command_reports, synthetic_reports):
    for report in command_reports + synthetic_reports:
        assert report.to_json() == _oracle_json(report)
        assert report.to_json() == _oracle_json(report)   # cached cells


def test_csv_matches_per_cell_writer(command_reports, synthetic_reports):
    for report in command_reports + synthetic_reports:
        assert report.to_csv() == _oracle_csv(report)
        assert report.to_csv() == _oracle_csv(report)     # cached cells
    text, js = synthetic_reports[0].to_csv(), synthetic_reports[0].to_json()
    assert "\nnan,False," in text and "\ninf,True," in text
    assert "\n-inf,True," in text
    assert '"x": NaN' in js and '"x": Infinity' in js
    assert '"x": -Infinity' in js and '"flag": true' in js


def test_csv_reader_reads_back_every_cell(command_reports, synthetic_reports):
    for report in command_reports + synthetic_reports:
        body = report.to_csv().split("\n", 5)[5]      # after the # lines
        rows = list(csv.reader(io.StringIO(body, newline="")))
        names = [name for name, _ in report.columns]
        assert rows[0] == names and len(rows) == len(report.rows) + 1
        for row, cells in zip(report.rows, rows[1:]):
            assert cells == [_old_fmt(row[name]) for name in names]
    assert _format_column(["a\rb", "plain"])[0] == ['"a\rb"', "plain"]
