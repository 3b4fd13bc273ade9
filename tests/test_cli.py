"""CLI: config parsing, round trips, report formats, determinism, errors."""

import csv
import hashlib
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

import numpy
import pytest

import bosegas
from bosegas.cli import (_RUNNERS, _SCHEMAS, Report, RunConfig,
                         _format_column, _parse_sweep, main, parse_config,
                         run, serialize_config)
from bosegas.errors import ParseError, UnknownKey
from report_text import strip_timestamp


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
    # a UTF-8 byte-order mark once ended in a ParseError
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert parse_config(["--config", str(path)]) == cfg
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
    bounds_2d = parse_config(["bounds", "--dim", "2", "--rho-a2-grid",
                              "1e-20:1e-8:4:log", "--format", "json"])
    for cfg in (bounds, bounds_2d, scatter):
        path = tmp_path / "round.json"
        path.write_text(serialize_config(cfg))
        again = parse_config(["--config", str(path)])
        assert again == cfg


def test_tolerance_keys_only_for_scatter():
    # the other commands name them an UnknownKey: rows of the exit table
    cfg = parse_config(["scatter", "--potential", "squarewell:r0=1,v0=2",
                        "--abs-tol", "1e-11", "--rel-tol", "1e-9"])
    assert (cfg.parameters["abs_tol"], cfg.parameters["rel_tol"]) \
        == (1e-11, 1e-9)
    # a repulsive well's a lies in (0, R0)
    assert 0.0 < run(cfg).rows[0]["a"] < 1.0


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
    assert body[1] == '"squarewell:r0=1,v0=0",3,1.0,0.0,nan,0.0'


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
    """Oracle: one 3D bounds row written out in one place, one Y at a time
    on Python floats with libm powers, independent of the functions in
    bosegas that the report calls."""
    lower = 1.0 - c * y ** (1.0 / 17.0)
    # cell method at the unit-scale instantiation rho = mu = 1, a from Y
    a = (3.0 * y / (4.0 * math.pi)) ** (1.0 / 3.0)
    y_cell = 4.0 * math.pi * 1.0 * a ** 3 / 3.0
    eps = 1.0 * y_cell ** (1.0 / 17.0)
    # at Y = 5e-324, 3Y/(4 pi) underflows to a = 0: eps = 0 fails the
    # ansatz below, and ell must not divide by 0 first
    ell = a / (1.0 * y_cell ** (6.0 / 17.0)) if a > 0.0 else math.inf
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
    t = y ** (1.0 / 3.0)
    return {
        "Y": y,
        "dyson_upper": (1.0 - t + t ** 2 - 0.5 * t ** 3) / (1.0 - t) ** 8,
        "dyson_upper_improved": (1.0 - t ** 2 + 0.5 * t ** 3)
        / (1.0 - t) ** 4,
        "lower_ratio": lower,
        "cell_lower_ratio": cell,
    }


@pytest.mark.parametrize("grid", ["1e-12:1e-4:50:log", "1e-14:0.9:4000:log",
                                  "1e-6:0.99:1001", "5e-324:0.99:3"])
def test_bounds_rows_match_row_by_row_oracle_bitwise(grid):
    rows = run(parse_config(["bounds", "--y-grid", grid])).rows
    ys = _parse_sweep(grid)
    assert len(rows) == len(ys)
    for row, y in zip(rows, ys):
        want = _row_by_row_bounds(y)
        assert list(row) == list(want)
        # repr pins every bit of a float; type() pins float vs bool
        assert {k: (type(v), repr(v)) for k, v in row.items()} \
            == {k: (type(v), repr(v)) for k, v in want.items()}


def test_sweep_rejects_nonfinite_ends():
    for text in ("nan:1e-4:3", "1e-8:inf:3:log", "-inf:1:3", "1:nan:2:log",
                 "-1e308:1e308:3", "1e-8:0:3:log", "1e-8:-1:3:log"):
        with pytest.raises(ParseError):
            _parse_sweep(text)


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
    row = payload["rows"][0]
    assert row["closed_form"] / row["displayed_prefactor_form"] \
        == pytest.approx(2.0)


def test_main_exit_codes(tmp_path):
    out = tmp_path / "row.csv"
    assert main(["scatter", "--potential", "hardcore:r0=1",
                 "--output", str(out)]) == 0
    assert out.exists()


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
    assert len(_parse_sweep("1:2:1000000")) == 10 ** 6
    for argv in (["gp", "--coupling", "1", "--grid-points", "100000"],
                 ["bogolubov", "--n-max", "100000"]):
        key = argv[-2][2:].replace("-", "_")
        assert parse_config(argv).parameters[key] == 10 ** 5


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
    # alpha ~ B/(2A) lies below the float range
    (["bogolubov", "--a-value", "1e308", "--b-value", "1e-300"],
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
    (["scatter", "--potential", "nonsense:r0=1"],
     "unknown pair potential spec 'nonsense:r0=1'"),
    (["gp", "--trap", "harmonic:scale=1,scale=2", "--coupling", "1"],
     "parameter 'scale' given twice in 'harmonic:scale=1,scale=2'"),
    (["gp", "--coupling", "-1"],
     "NegativeCoupling: coupling must be nonnegative"),
    (["scatter", "--potential", "squarewell:r0=1,v0=1", "--mu", "0"],
     "mu must be positive"),
    *(([cmd, "--coupling", "1", "--mu-const", "-1"],
       "mu_const must be positive") for cmd in ("tf", "gp")),
    (["foldy", "--mu-const", "-1"], "rho and mu_const must be positive"),
    # the first row of a bounds sweep decides which bound names the error
    (["bounds", "--y-grid", "-1:2:4"], "Y must be positive"),
    (["bounds", "--y-grid", "2:-1:4"], "upper bound valid for 0 < Y < 1"),
    # --mu inf once gave a = -0.0, s = nan and converged = True with exit 0
    *((["scatter", "--potential", "squarewell:r0=1,v0=1", "--mu", mu],
      f"mu must be finite, got {mu}") for mu in ("inf", "nan", "-inf")),
    (["scatter", "--potential", "hardcore:r0=inf"],
     "core_radius must be finite, got inf"),
    (["scatter", "--potential", "squarewell:r0=1,v0=nan"],
     "strength must be finite, got nan"),
    (["gp", "--trap", "harmonic:scale=inf", "--coupling", "1"],
     "scale must be finite, got inf"),
    (["bounds", "--lower-c", "nan"], "C must be finite, got nan"),
    (["tf", "--coupling", "inf"], "coupling must be finite, got inf"),
    (["tf", "--coupling", "nan"], "coupling must be finite, got nan"),
    (["tf", "--n", "nan", "--coupling", "1"], "N must be finite, got nan"),
    (["foldy", "--mu-const", "nan"], "mu_const must be finite, got nan"),
    (["foldy", "--rho-grid", "1:2:2", "--mu-const", "-inf"],
     "mu_const must be finite, got -inf"),
    *((argv, "N, coupling and mu_const must be finite")
      for argv in (["gp", "--coupling", "nan"], ["gp", "--coupling", "inf"],
                   ["gp", "--n", "nan", "--coupling", "1"])),
    # a ~ 1.7e-925 once came out as a = -0.0, s = nan and converged = True
    (["scatter", "--potential", "squarewell:r0=1e-308,v0=1"],
     "ScatteringLengthUnderflow: a = -0.0 for a nonzero potential"),
    # u ~ sinh(r / sqrt(2)) overflows inside the well, as in any overflowing
    # well; it once surfaced as a DomainError from the Born integral's r0^3
    (["scatter", "--potential", "squarewell:r0=1e200,v0=1"],
     "NonFiniteRhs: rhs non-finite in the step from r=0.0"),
    (["scatter", "--potential", "hardcore:r0=1", "--output", "no-dir/a.csv"],
     "io error: [Errno 2] No such file or directory: 'no-dir/a.csv'"),
    # exit 2: a key, a value or a sweep that the configuration cannot hold
    (["scatter", "--potentail", "x"], "config error: UnknownKey: unknown key "
     "'potentail'; did you mean 'potential'?"),
    (["scatter", "--potential", "hardcore:r0=1", "--grid-points", "64"],
     "config error: UnknownKey: unknown key 'grid_points'"),
    (["bounds", "--rel-tol", "5"], "config error: UnknownKey: unknown key "
     "'rel_tol'"),
    (["gp", "--coupling", "1", "--abs-tol", "-3"],
     "config error: UnknownKey: unknown key 'abs_tol'"),
    (["tf", "--coupling", "1", "--rel-tol", "1e-3"],
     "config error: UnknownKey: unknown key 'rel_tol'"),
    (["verify", "--abs-tol", "1e-8"],
     "config error: UnknownKey: unknown key 'abs_tol'"),
    *((argv, f"config error: ParseError: sweep {argv[-1]!r}: lo, hi and "
      "hi - lo must be finite")
      for argv in (["bounds", "--y-grid", "nan:1e-4:3"],
                   ["bounds", "--dim", "2", "--rho-a2-grid", "nan:1e-6:3:log"],
                   ["bounds", "--y-grid", "1e-8:inf:3:log"],
                   ["gp-tf-limit", "--g-grid", "10:nan:2"],
                   ["foldy", "--rho-grid", "1:inf:2"])),
    # the first, third and last once ended in a traceback (exit 1): a
    # 7.28 TiB sweep, a 745 GiB grid and an array size numpy refuses
    (["bounds", "--y-grid", "1:2:1000000000000"], "config error: ParseError: "
     "sweep '1:2:1000000000000': needs 1 to 1000000 points"),
    (["foldy", "--rho-grid", "1:2:1000001:log"], "config error: ParseError: "
     "sweep '1:2:1000001:log': needs 1 to 1000000 points"),
    (["gp", "--coupling", "1", "--grid-points", "100000000000"],
     "config error: ParseError: parameter 'grid_points': 100000000000 "
     "exceeds the ceiling 100000"),
    (["gp-tf-limit", "--grid-points", "100001"], "config error: ParseError: "
     "parameter 'grid_points': 100001 exceeds the ceiling 100000"),
    (["bogolubov", "--n-max", "100000000000000000000"],
     "config error: ParseError: parameter 'n_max': 100000000000000000000 "
     "exceeds the ceiling 100000"),
    # a malformed sweep is named at parse time, before its runner loads numpy
    (["bounds", "--y-grid", "1:2"], "config error: ParseError: sweep '1:2': "
     "expected lo:hi:points[:log]"),
    (["foldy", "--rho-grid", "1:2:3:lin"], "config error: ParseError: sweep "
     "suffix must be 'log', got 'lin'"),
    (["gp-tf-limit", "--g-grid", "x:1:3"], "config error: ParseError: sweep "
     "'x:1:3': could not convert string to float: 'x'"),
    # a bounds key that the dimension does not read must keep its default;
    # these once exited 0 with the key ignored
    (["bounds", "--dim", "2", "--y-grid", "1e-3:1e-2:3", "--lower-c", "5"],
     "config error: ParseError: parameter 'y_grid' is not read by bounds "
     "in 2D"),
    (["bounds", "--dim", "2", "--lower-c", "5"], "config error: ParseError: "
     "parameter 'lower_c' is not read by bounds in 2D"),
    (["bounds", "--rho-a2-grid", "1e-10:1e-8:2"], "config error: ParseError: "
     "parameter 'rho_a2_grid' is not read by bounds in 3D"),
    # a file that is not UTF-8 once ended in a UnicodeDecodeError traceback
    # (exit 1); the test writes both files in UTF-16, which starts \xff\xfe
    (["--config", "utf16.json"], "config error: ParseError: cannot read "
     "config file 'utf16.json': 'utf-8' codec can't decode byte 0xff in "
     "position 0"),
    (["scatter", "--potential", "table:path=utf16.csv"], "DomainError: table "
     "'utf16.csv': 'utf-8' codec can't decode byte 0xff in position 0"),
    # an infinite tolerance made the rerun gate vacuous (--abs-tol inf once
    # exited 0 with a 4.9e-5 relative error in a), and a NaN one or
    # --rel-tol inf ended in a misleading StepSizeUnderflow
    *((["scatter", "--potential", "squarewell:r0=1,v0=10", flag, value],
      f"{flag[2:].replace('-', '_')} must be finite, got {value}")
      for flag, value in (("--abs-tol", "inf"), ("--abs-tol", "nan"),
                          ("--rel-tol", "nan"), ("--rel-tol", "inf"))),
    # parse errors of the command line and of the config file itself
    (["scatter", "--potential"], "config error: ParseError: flag "
     "'--potential' is missing a value"),
    (["scatter", "-x"], "config error: ParseError: unrecognized token '-x'"),
    (["scatter", "bounds"], "config error: ParseError: at most one "
     "positional command, got ['scatter', 'bounds']"),
    (["--config", "bad.json"], "config error: ParseError: config file "
     "'bad.json': line 1: Expecting value"),
    (["--config", "list.json"], "config error: ParseError: config file must "
     "hold a flat JSON object"),
    # Y^(1/3) rounds to 1: this once exited 0 with dyson_upper = inf and two
    # numpy warnings on stderr
    (["bounds", "--y-grid", "0.9999999999999999:0.9999999999999999:1"],
     "DomainError: Y = 0.9999999999999999: 1 - Y^(1/3) rounds to 0"),
    # `gp` checks its arguments before it loads numpy, after the trap and
    # in gp_minimize's order
    (["gp", "--coupling", "-1", "--n", "nan"],
     "N, coupling and mu_const must be finite"),
    (["gp", "--coupling", "-1", "--trap", "nope"], "unknown trap spec 'nope'"),
    # an empty path once wrote the report to stdout, or no profile, exit 0
    (["bogolubov", "--output", ""],
     "io error: [Errno 2] No such file or directory: ''"),
    (["gp", "--coupling", "1", "--grid-points", "100", "--profile-out", ""],
     "io error: [Errno 2] No such file or directory: ''"),
    # a NUL byte in a path, set in a config file or the --config path
    # itself, and a 5000-digit number or 10^5 nested arrays in a config
    # file once ended in a ValueError or RecursionError traceback (exit 1)
    (["bogolubov", "--config", "nul-output.json"],
     "io error: embedded null byte in path 'a\\x00b'"),
    (["gp", "--coupling", "1", "--grid-points", "100", "--config",
      "nul-profile.json"], "io error: embedded null byte in path 'a\\x00b'"),
    (["scatter", "--config", "nul-table.json"],
     "DomainError: table 'a\\x00b': embedded null byte"),
    (["bounds", "--config", "deep.json"], "config error: ParseError: cannot "
     "read config file 'deep.json': maximum recursion depth exceeded"),
    (["bounds", "--config", "a\0b"], "config error: ParseError: cannot read "
     "config file 'a\\x00b': embedded null byte"),
    (["bogolubov", "--config", "bigint.json"], "config error: ParseError: "
     "cannot read config file 'bigint.json': Exceeds the limit (4300 digits) "
     "for integer string conversion"),
])
def test_boundary_inputs_exit_3_with_a_named_error(capsys, tmp_path,
                                                   monkeypatch, argv, message):
    # the CLI's exit contract: every input ends in a report or in a named
    # error on stderr, with exit 2 for a configuration (`config error: `
    # starts the message) and exit 3 for a command's input (`<command>: `
    # starts it, and a message that names no error is a DomainError's)
    monkeypatch.chdir(tmp_path)
    for name, text in (("utf16.json", '{"command": "bogolubov"}'),
                       ("utf16.csv", "1.0,2.0\n2.0,0.0\n")):
        (tmp_path / name).write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    (tmp_path / "bad.json").write_text('{"command": ')
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "deep.json").write_text("[" * 10 ** 5)
    (tmp_path / "bigint.json").write_text('{"n_max": ' + "1" * 5000 + "}")
    for name, key, value in (("output", "output", "a\0b"),
                             ("profile", "profile_out", "a\0b"),
                             ("table", "potential", "table:path=a\0b")):
        (tmp_path / f"nul-{name}.json").write_text(json.dumps({key: value}))
    code = 2 if message.startswith("config error: ") else 3
    if code == 3:
        message = f"{argv[0]}: " + (message if ": " in message
                                    else f"DomainError: {message}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(message)
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["scatter", "--potential", "squarewell:r0=1,v0=2,r0=3"],
    ["gp", "--coupling", "1", "--trap", "harmonic:scale=1,scale=2"],
])
def test_repeated_spec_key_exits_with_a_named_error(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"{argv[0]}: DomainError: parameter ")
    assert "given twice in" in err
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


# SHA-256 of the body of each README example whose command computes on
# Python floats, in CSV and in JSON, with its timestamp line stripped.  A
# change that moves a bit of one regenerates this table (the failing
# assertion prints the new one) and names each moved body.
_GOLDEN_BODIES = {
    "bosegas scatter --potential hardcore:r0=1 [csv]":
        "4c4ab94364ce760940f25aee6d095cc7e7c8b189eb02f1d2da194bb733bae959",
    "bosegas scatter --potential hardcore:r0=1 [json]":
        "d07fe5ce7a8923eeb685a12f85ec05f0f2825ec9d2a8e46488c4cb304b7b9f13",
    "bosegas scatter --potential squarewell:r0=1,v0=10 --mu 2 [csv]":
        "a10aeec5f7e3caae618bce27dcc3275e060710ce5895f84dbef8dc5ceb9ae26d",
    "bosegas scatter --potential squarewell:r0=1,v0=10 --mu 2 [json]":
        "d863c50eba9fd0e3afd2db9ba1a09346c30d9bdd00aa1312ed691d8ef1caeccc",
    "bosegas bounds --y-grid 1e-12:1e-4:50:log --output bounds.csv [csv]":
        "e912f42e57ae825bd60ff345f0fcbd13e99261d3a77f842e48a6bd5e35618a20",
    "bosegas bounds --y-grid 1e-12:1e-4:50:log --output bounds.csv [json]":
        "c74a843c603b1350fd4e96a6c1ccb3f74c5d6a73f8ace3fb5efd31a19b738fde",
    "bosegas tf --coupling 100 [csv]":
        "e59d8f51bb46cf5496f5d6df33d037e77d6125cccf67c5aac05991071ace9618",
    "bosegas tf --coupling 100 [json]":
        "1cd0b287a50ec1b4165804b27a9f5cf4f0d3223ffd45896de2f6c49eb208fb35",
    "bosegas foldy --rho-grid 1:256:3:log [csv]":
        "20912e7e8270014b3cb43758f7154392c09f6af0efdcffae10d8f007b843554f",
    "bosegas foldy --rho-grid 1:256:3:log [json]":
        "a0b494a3119e7539ba5803c38cf357aa8cf32a6d6a2107c87e99ad080f78b3f4",
    "bosegas bogolubov --a-value 5 --b-value 3 [csv]":
        "b0c18e87d68e22e0e087f7a1fa93b2c1348881ea7b517271efa5e2237543bc1d",
    "bosegas bogolubov --a-value 5 --b-value 3 [json]":
        "e8a1c4b1110668b9a8ec0edf0d95a4d9dbc30efd3ba9019b785fe2ada7e3df7f",
}


# The same for a 3D sweep whose rows cross each exit of the cell
# construction: a bound, a void occupancy term, n < 2 and R >= ell/2
_GOLDEN_SWEEPS = {
    "bosegas bounds --y-grid 1e-14:0.9:2000:log [csv]":
        "11ef4013aa7fc4220ae5d7121be6f12f1b9729fbb4c8fffb9d6ca09f64d2fcd9",
    "bosegas bounds --y-grid 1e-14:0.9:2000:log [json]":
        "0db0691761b42927caf1edf654914e2a6b168960b50f803285f431ae312e49e1",
}


def _body(argv, fmt):
    """The body of `bosegas argv` in format fmt, its timestamp line
    stripped."""
    report = run(parse_config(argv[1:] + ["--format", fmt]))
    return strip_timestamp(report.to_csv() if fmt == "csv"
                           else report.to_json())


def _readme_bodies():
    """The stripped body of each numpy-free README example, by command line
    and format."""
    return {f"{shlex.join(argv)} [{fmt}]": _body(argv, fmt)
            for argv in _readme_cli_examples()
            if argv[1] in ("scatter", "bounds", "tf", "foldy", "bogolubov")
            for fmt in ("csv", "json")}


def test_readme_bodies_match_their_golden_hashes():
    # the numpy-free bodies depend only on IEEE arithmetic and libm, so
    # they are the same on every CPU and Python in CI
    got = {key: hashlib.sha256(body.encode()).hexdigest()
           for key, body in _readme_bodies().items()}
    assert len(got) == 12
    assert got == _GOLDEN_BODIES


def test_sweep_bodies_match_their_golden_hashes():
    argv = ["bosegas", "bounds", "--y-grid", "1e-14:0.9:2000:log"]
    got = {f"{shlex.join(argv)} [{fmt}]":
           hashlib.sha256(_body(argv, fmt).encode()).hexdigest()
           for fmt in ("csv", "json")}
    assert got == _GOLDEN_SWEEPS


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
    unit = gp_minimize(TrapPotential(kind="power-law"), pars["n"],
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


def test_born_integral_out_of_float_range_reports_nan(capsys):
    # the solve succeeds, and r0^3 in the Born integral overflows: the row
    # holds nan there, where a traceback once ended the command (exit 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["scatter", "--potential",
                     "squarewell:r0=1e120,v0=1e-300"]) == 0
    out, err = capsys.readouterr()
    row = next(csv.DictReader(ln for ln in out.splitlines()
                              if not ln.startswith("#")))
    # the weak-well Born limit a = v0 r0^3 / (6 mu)
    assert (row["a"], row["s"], row["born_integral"]) \
        == ("1.6666666666666645e+59", "nan", "nan")
    assert err == ""


@pytest.mark.parametrize("a_value, b_value, row", [
    # B << A once gave 0.0 for both, where fock_energy prints -5e-19
    ("1", "1e-9", ["5e-10", "1.0", "2.5e-19", "-5e-19"]),
    # once 0.09999999999999999, 5e-201, 5e-201 and -1e-200, exit 0
    ("1e-200", "1e-201", ["0.05012562893380045", "9.9749371855331e-201",
                          "2.5062814466900225e-203",
                          "-5.012562893380045e-203"]),
    # A^2 once overflowed (exit 3)
    ("1e308", "1e307", ["0.05012562893380045", "9.9749371855331e+307",
                        "2.5062814466900227e+305",
                        "-5.0125628933800455e+305"]),
])
def test_pair_mode_columns_at_scaled_inputs(a_value, b_value, row, capsys):
    assert main(["bogolubov", "--a-value", a_value, "--b-value", b_value]) == 0
    body = [ln for ln in capsys.readouterr().out.splitlines()
            if not ln.startswith("#")]
    cells = next(csv.DictReader(body))
    assert [cells[key] for key in ("alpha", "D", "ground_bound_coeff",
                                   "exact_pair_energy")] == row


def test_table_row_without_a_value_exits_3(tmp_path, capsys):
    table = tmp_path / "one_column.csv"
    table.write_text("0.5\n1.0\n")
    assert main(["scatter", "--potential", f"table:path={table}"]) == 3
    err = capsys.readouterr().err
    assert "DomainError: table" in err and "lacks a value" in err
    assert "Traceback" not in err


def test_output_file_holds_a_spec_that_is_not_utf8(tmp_path, monkeypatch):
    # a table's file name that is not UTF-8 reaches the report as it came;
    # writing it to --output once ended in a UnicodeEncodeError traceback
    monkeypatch.chdir(tmp_path)
    name = os.fsdecode(b"t\xff.csv")
    pathlib.Path(name).write_text("1.0,2.0\n2.0,0.0\n")
    assert main(["scatter", "--potential", f"table:path={name}",
                 "--output", "out.csv"]) == 0
    assert b"\ntable:path=t\xff.csv,3," in pathlib.Path("out.csv").read_bytes()


def test_gp_profile_export(tmp_path):
    prof = tmp_path / "prof.csv"
    cfg = parse_config(["gp", "--coupling", "0.1", "--grid-points", "700",
                        "--profile-out", str(prof)])
    run(cfg)
    text = prof.read_text()
    assert text.startswith("# trap")
    assert "r,phi,rho" in text


@pytest.mark.parametrize("spec", [
    "harmonic:scale=3", "box:l=3", "power:s=2,scale=3",
    "power:s=2.5,scale=0.30000000000000004"])
@pytest.mark.parametrize("dim", ["2", "3"])
def test_profile_trap_header_reads_back_as_the_runs_trap(tmp_path, spec, dim):
    from bosegas.potentials import parse_trap_potential
    prof = tmp_path / "prof.csv"
    assert main(["gp", "--trap", spec, "--dim", dim, "--coupling", "1",
                 "--grid-points", "100", "--profile-out", str(prof)]) == 0
    header = prof.read_text().splitlines()[0]
    assert header.startswith("# trap = ")
    assert parse_trap_potential(header[len("# trap = "):], int(dim)) \
        == parse_trap_potential(spec, int(dim))


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


# Each row in a process of its own: the command line of `python -m
# bosegas.cli` (None: `import bosegas.cli` alone), its exit code, the
# bosegas modules it loads, whether it loads numpy, the public scipy
# subpackages it loads and the DOP853 trial steps it compiles.  A
# configuration error loads no solver module; `scatter`, `bounds`, `tf`,
# `foldy` and `bogolubov` compute on Python floats, as the GP argument checks
# do; only the GP commands call LAPACK, numpy's own dgtsv where numpy ships
# scipy-openblas and scipy's elsewhere; and a solve compiles one trial step
# per state shape.
_SCIPY_OPENBLAS = numpy.__config__.CONFIG["Build Dependencies"]["lapack"][
    "name"] == "scipy-openblas"
_LINALG = "" if _SCIPY_OPENBLAS else "linalg version"
_SCATTER = "errors numerics potentials scattering"
_TF = "errors numerics potentials thomas_fermi"
_GP = "errors gp numerics potentials thomas_fermi"
_FRESH_LOADS = [
    (None, None, "cli errors", False, "", 0),
    ("", 0, "errors", False, "", 0),
    ("gp --coupling 1 --coupling-strength 2", 2, "errors", False, "", 0),
    ("scatter --potentail x", 2, "errors", False, "", 0),
    ("bounds --y-grid 1:2", 2, "errors", False, "", 0),
    ("foldy --rho-grid 1:2:3:lin", 2, "errors", False, "", 0),
    ("gp-tf-limit --g-grid x:1:3", 2, "errors", False, "", 0),
    ("scatter --potential nope", 3, _SCATTER, False, "", 0),
    ("scatter --potential hardcore:r0=1", 0, _SCATTER, False, "", 0),
    ("scatter --potential squarewell:r0=1,v0=10 --mu 2", 0, _SCATTER, False,
     "", 1),
    ("tf --coupling 100", 0, _TF, False, "", 0),
    ("bogolubov", 0, "bogolubov errors numerics", False, "", 0),
    ("bounds --y-grid 1e-12:1e-4:5:log", 0, "errors homogeneous", False, "",
     0),
    ("bounds --dim 2 --rho-a2-grid 1e-20:1e-8:4:log", 0, "errors homogeneous",
     False, "", 0),
    ("foldy --rho-grid 1:16:2:log", 0, "bogolubov errors numerics", False, "",
     0),
    ("gp --coupling -1", 3, _TF, False, "", 0),
    ("gp --coupling 1 --mu-const -1", 3, _TF, False, "", 0),
    ("gp --coupling 1 --grid-points 3", 3, _TF, False, "", 0),
    ("gp-tf-limit --g-grid 0:10:2", 3, _TF, False, "", 0),
    ("gp-tf-limit --g-grid 10:1:2", 3, _TF, False, "", 0),
    ("gp-tf-limit --trap box:l=1", 3, _TF, False, "", 0),
    ("gp-tf-limit --grid-points 3", 3, _TF, False, "", 0),
    ("gp --coupling 1 --grid-points 300", 0, _GP, True, _LINALG, 0),
    ("gp-tf-limit --g-grid 10:100:2:log --grid-points 300", 0, _GP, True,
     _LINALG, 0),
    ("verify", 0, "bogolubov errors gp homogeneous numerics potentials "
     "scattering thomas_fermi verify", True, _LINALG, 2),
]

# Forks a child per row, two at a time, from an interpreter that has imported
# only the standard library.  Each child writes its row's index and facts in
# one line, or the exception it raised in place of its facts.
_FRESH_PROBE = """
import contextlib, io, json, os, runpy, sys
def facts(line):
    code = None
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        if line is None:
            import bosegas.cli
        else:
            sys.argv = ["bosegas.cli", *line.split()]
            try:
                runpy.run_module("bosegas.cli", run_name="__main__")
            except SystemExit as exc:
                code = exc.code
    numerics = sys.modules.get("bosegas.numerics")
    return [code, " ".join(sorted(m[8:] for m in sys.modules
                                  if m.startswith("bosegas."))),
            "numpy" in sys.modules,
            " ".join(sorted({m.split(".")[1] for m in sys.modules
                             if m.startswith("scipy.") and m[6] != "_"})),
            numerics._trial_step.cache_info().misses if numerics else 0]
for i, line in enumerate(json.loads(sys.argv[1])):
    if i >= 2:
        os.wait()
    if os.fork() == 0:
        try:
            seen = facts(line)
        except BaseException as exc:
            seen = repr(exc)
        os.write(1, (json.dumps([i, seen]) + "\\n").encode())
        os._exit(0)
for _ in range(min(i + 1, 2)):
    os.wait()
"""


def _child_env():
    """The environment of a child that imports the same bosegas as this
    process, installed or not."""
    src = os.path.dirname(os.path.dirname(bosegas.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="module")
def fresh_loads():
    """The probe's facts for each row of _FRESH_LOADS, by row index."""
    if not hasattr(os, "fork"):
        pytest.skip("the probe forks")
    # sys.modules of this process already holds scipy, so look in fresh ones
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FRESH_PROBE,
         json.dumps([line for line, *_ in _FRESH_LOADS])],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def test_each_command_loads_only_what_it_computes_with(fresh_loads):
    for i, (line, *facts) in enumerate(_FRESH_LOADS):
        assert fresh_loads.get(i) == facts, line


def test_cli_subprocess_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "bosegas.cli", "bogolubov"],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0
    assert "fock_energy" in proc.stdout


def test_cold_commands_do_not_load_scipy(fresh_loads):
    # the import alone, a configuration error, a rejected GP argument and the
    # commands on Python floats load neither numpy nor scipy; none loads
    # scipy.optimize or scipy.integrate
    for i, (line, code, *_) in enumerate(_FRESH_LOADS):
        if not line or code == 2 or code == 3 and line.startswith("gp") \
                or line.split()[0] in ("scatter", "bounds", "tf", "foldy",
                                       "bogolubov"):
            assert fresh_loads[i][2:4] == [False, ""], line
        assert not {"optimize", "integrate"} & set(fresh_loads[i][3].split())
    if not _SCIPY_OPENBLAS:
        pytest.skip("numpy's LAPACK is not scipy-openblas: the GP commands "
                    "solve with scipy's dgtsv")
    # numpy's own dgtsv solves: no command loads scipy
    assert all(fresh_loads[i][3] == "" for i in range(len(_FRESH_LOADS)))


def test_commands_without_an_ode_compile_no_trial_step(fresh_loads):
    # a hard core is exact, and tf and bogolubov integrate no ODE: they load
    # numerics but generate no DOP853 step
    for line in ("scatter --potential hardcore:r0=1", "tf --coupling 100",
                 "bogolubov"):
        i = [row[0] for row in _FRESH_LOADS].index(line)
        code, modules, *_, steps = fresh_loads[i]
        assert (code, "numerics" in modules.split(), steps) == (0, True, 0)


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
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _oracle_csv(report) -> str:
    lines = [f"# {key} = {value}" for key, value in report.metadata.items()]
    lines.append("# units: " + "; ".join(f"{name} [{unit}]"
                                         for name, unit in report.columns))
    names = [name for name, _ in report.columns]
    body = io.StringIO()
    writer = csv.writer(body, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([_old_fmt(row[name]) for name in names]
                     for row in report.rows)
    return "\n".join(lines) + "\n" + body.getvalue()


def _oracle_json(report) -> str:
    payload = {"metadata": dict(report.metadata,
                                columns=[{"name": n, "unit": u}
                                         for n, u in report.columns]),
               "rows": report.rows}
    return json.dumps(payload, indent=2) + "\n"


_SYNTHETIC_COLUMNS = [("x", "length"), ("flag", "bool"), ("n", "count"),
                      ("text", "spec"), ("mixed", "any")]


def _synthetic_report(rows, columns=_SYNTHETIC_COLUMNS, **more_metadata):
    rows = [dict(zip([name for name, _ in columns], row)) for row in rows]
    metadata = {"command": "synthetic", "config": '{"a": "b\\\\c"}',
                "version": bosegas.__version__, "timestamp": "now",
                **more_metadata}
    return Report(metadata=metadata, columns=columns, rows=rows)


_SYNTHETIC_ROWS = [
    (1.5, True, 3, 'say "hi"', 1),
    (math.nan, False, -2, "back\\slash", "plain"),
    (math.inf, True, 0, "Ω café ünï", 0.1),
    (-math.inf, True, 10 ** 20, "squarewell:r0=1,v0=10", math.inf),
    (-0.0, False, 1, "tab\there\nline", None),
    (1e300, True, 2, "", True),
]


@pytest.fixture(scope="module")
def command_reports():
    return [run(parse_config(argv)) for argv in _EVERY_COMMAND]


@pytest.fixture
def synthetic_reports():
    # one row; one column, so no separator between cells; and column names
    # that CSV quotes or JSON escapes, with % among them
    odd = [('100% "x"', "ratio"), ("back\\slash", "1"), ("Ωmega", "1"),
           ("a,b", "1"), ("flag", "bool")]
    return [_synthetic_report(_SYNTHETIC_ROWS),
            _synthetic_report(_SYNTHETIC_ROWS[:1]), _synthetic_report([]),
            _synthetic_report([(row[0],) for row in _SYNTHETIC_ROWS],
                              [("x", "length")]),
            _synthetic_report([("only",)], [("%s", "1")]),
            _synthetic_report(_SYNTHETIC_ROWS, odd),
            _synthetic_report(_SYNTHETIC_ROWS[:1], odd),
            _synthetic_report(_SYNTHETIC_ROWS, elapsed_s=0.25)]


def test_reports_cover_every_command(command_reports):
    assert {r.metadata["command"] for r in command_reports} \
        == set(_RUNNERS)


def test_every_cell_is_a_python_scalar(command_reports):
    # the writer formats bool, int, float and str, and no numpy scalar
    for report in command_reports:
        for row in report.rows:
            for name, value in row.items():
                assert type(value) in (bool, int, float, str), \
                    (report.metadata["command"], name, type(value))


def test_row_keys_are_the_column_names_in_order(command_reports):
    for report in command_reports:
        names = [name for name, _ in report.columns]
        assert report.rows
        for row in report.rows:
            assert list(row) == names


# Every command's columns with their units, in order; bounds per dimension
_COLUMNS = {
    "scatter": [("potential", "spec"), ("dim", "1"),
                ("mu", "energy*length^2"), ("a", "length"),
                ("s", "dimensionless"),
                ("born_integral", "energy*length^dim")],
    "bounds 3D": [("Y", "dimensionless"), ("dyson_upper", "dimensionless"),
                  ("dyson_upper_improved", "dimensionless"),
                  ("lower_ratio", "dimensionless"),
                  ("cell_lower_ratio", "dimensionless")],
    "bounds 2D": [("rho_a2", "dimensionless"), ("leading", "energy"),
                  ("upper", "energy"), ("lower", "energy")],
    "gp": [("trap", "spec"), ("dim", "1"), ("N", "count"),
           ("coupling", "length|dimensionless"), ("E", "energy"),
           ("kinetic", "energy"), ("trap_energy", "energy"),
           ("interaction", "energy"), ("mu_gp", "energy"),
           ("rho_bar", "length^-dim"), ("residual", "dimensionless"),
           ("iterations", "count"), ("newton_steps", "count")],
    "tf": [("trap", "spec"), ("dim", "1"), ("N", "count"),
           ("coupling", "length|dimensionless"), ("mu_tf", "energy"),
           ("support_radius", "length"), ("E_tf", "energy"),
           ("identity_gap", "dimensionless")],
    "gp-tf-limit": [("g", "dimensionless"), ("E_gp", "energy"),
                    ("E_tf", "energy"), ("ratio", "dimensionless"),
                    ("l1_rescaled", "dimensionless")],
    "foldy": [("rho", "length^-3"), ("mode_integral", "energy"),
              ("closed_form", "energy"),
              ("displayed_prefactor_form", "energy"),
              ("numeric_over_closed", "dimensionless")],
    "bogolubov": [("A", "energy"), ("B", "energy"),
                  ("alpha", "dimensionless"), ("D", "energy"),
                  ("ground_bound_coeff", "energy"),
                  ("fock_energy", "energy"),
                  ("exact_pair_energy", "energy")],
    "verify": [("suite", "name"), ("check", "name"), ("passed", "bool"),
               ("observed", "per check"), ("tolerance", "per check"),
               ("margin", "tolerance/observed"), ("detail", "text")],
}


def test_every_command_has_its_pinned_columns_and_units(command_reports):
    seen = set()
    for report in command_reports:
        command = report.metadata["command"]
        if command == "bounds":
            dim = json.loads(report.metadata["config"])["dim"]
            command = f"bounds {dim}D"
        seen.add(command)
        assert report.columns == _COLUMNS[command], command
        names = ",".join(name for name, _ in _COLUMNS[command])
        assert f"\n{names}\n" in report.to_csv(), command
    assert seen == set(_COLUMNS)


def test_csv_prints_every_metadata_entry_as_json_does():
    report = _synthetic_report(_SYNTHETIC_ROWS[:1], elapsed_s=0.25)
    assert "\n# timestamp = now\n# elapsed_s = 0.25\n# units: " \
        in report.to_csv()
    assert list(json.loads(report.to_json())["metadata"]) == [
        "command", "config", "version", "timestamp", "elapsed_s", "columns"]


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
        # after the metadata and units lines
        body = report.to_csv().split("\n", len(report.metadata) + 1)[-1]
        rows = list(csv.reader(io.StringIO(body, newline="")))
        names = [name for name, _ in report.columns]
        assert rows[0] == names and len(rows) == len(report.rows) + 1
        for row, cells in zip(report.rows, rows[1:]):
            assert cells == [_old_fmt(row[name]) for name in names]
    assert _format_column(["a\rb", "plain"])[0] == ['"a\rb"', "plain"]


@pytest.mark.parametrize("values", [
    [1.0 / 3.0] * 5,                         # one object in every cell
    [0.0, -0.0, 0.0],                        # equal values, different text
    [math.nan] * 4,                          # one NaN object
    [math.inf, math.inf, -math.inf],
    [],
], ids=["repeated", "signed-zeros", "repeated-nan", "infinities", "empty"])
def test_float_column_formats_each_cell_by_its_own_repr(values):
    # a cell's text is reused only for the same object, never for an
    # equal value: 0.0 == -0.0 but their texts differ
    nonfinite = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    csv_cells, json_cells = _format_column(values)
    assert csv_cells == [float.__repr__(v) for v in values]
    assert json_cells == [nonfinite.get(repr(v), repr(v)) for v in values]
    assert json_cells == [json.dumps(v) for v in values]
