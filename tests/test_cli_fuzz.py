"""Fuzz of cli.main: every drawn command line ends in a report (exit 0) or a
named error (exit 2 or 3), never in a traceback or a warning.

Flags are drawn per command from the CLI schema, with hostile values (NaN,
infinities, zero, negatives, 1e308, text) and near-miss unknown keys; the
potential and trap specs are drawn the same way.  Only sizes are bounded,
for runtime: at most 400 GP grid points, 5 sweep points and n_max 60, and
`verify` is left out.
"""

import contextlib
import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from bosegas.cli import _SCHEMAS, main

NUMBERS = ["nan", "inf", "-inf", "0", "-0.0", "-1", "-2.5", "1e308",
           "-1e308", "1e-308", "5e-324", "1", "2", "3", "0.5", "100",
           "1e5", "abc", "", "1e", "0x10", "4", "10"]
SIZES = ["-3", "-1", "0", "1", "2", "15", "16", "17", "64", "x", "1.5",
         "1e3"]
number = st.one_of(st.sampled_from(NUMBERS),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr))


def near_misses(key):
    """Keys one edit away from a valid one: a dropped, a doubled or a
    swapped character, or a suffix."""
    out = {key[:i] + key[i + 1:] for i in range(len(key))}
    out |= {key[:i] + key[i] + key[i:] for i in range(len(key))}
    out |= {key[:i] + key[i + 1] + key[i] + key[i + 2:]
            for i in range(len(key) - 1)}
    out |= {key + "_strength", key + "s"}
    return sorted(out)


@st.composite
def sweeps(draw):
    lo, hi = draw(number), draw(number)
    points = draw(st.sampled_from(["-1", "0", "1", "2", "5", "x", "2.5"]))
    tail = draw(st.sampled_from(["", ":log", ":lin", ":log:log"]))
    return draw(st.one_of(st.just(f"{lo}:{hi}:{points}{tail}"),
                          st.sampled_from(["", ":", "1:2", "a:b:c",
                                           "1e-8:1e-4:3:log"])))


@st.composite
def spec(draw, kinds):
    """`name:key=value,...` with names, keys and values drawn hostile."""
    name = draw(st.sampled_from(sorted(kinds) + ["nonsense", ""]))
    keys = kinds.get(name, ["r0"])
    pairs = [f"{key}={draw(number)}" for key in keys
             if draw(st.booleans())]
    if draw(st.booleans()):
        pairs.append(f"{draw(st.sampled_from(['x', 'r', 'v0v']))}=1")
    return name + (":" + ",".join(pairs) if pairs or draw(st.booleans())
                   else "")


POTENTIALS = {"hardcore": ["r0"], "squarewell": ["r0", "v0"],
              "softsphere": ["r0", "v0"], "table": []}
TRAPS = {"harmonic": ["scale"], "box": ["l"], "power": ["s", "scale"]}


def values(key, typ, tables, out):
    if key == "potential":
        return st.one_of(spec(POTENTIALS),
                         st.sampled_from(tables).map("table:path={}".format))
    if key == "trap":
        return spec(TRAPS)
    if key.endswith("_grid"):
        return sweeps()
    if key == "grid_points":
        return st.one_of(st.sampled_from(SIZES),
                         st.integers(-5, 400).map(str))
    if key == "n_max":
        return st.one_of(st.sampled_from(SIZES), st.integers(-5, 60).map(str))
    if key == "dim":
        return st.sampled_from(["-1", "0", "1", "2", "3", "4", "10", "3.0",
                                "two"])
    if key == "profile_out":
        return st.just(out)
    assert typ is float, key
    return number


@st.composite
def command_lines(draw, tables, out):
    command = draw(st.sampled_from(sorted(set(_SCHEMAS) - {"verify"})))
    schema = _SCHEMAS[command]
    argv = [command]
    for key, (typ, _default, _unit) in schema.items():
        bounded = key in ("grid_points", "n_max")   # runtime: always drawn
        if bounded or draw(st.integers(0, 3)) > 0:
            value = draw(values(key, typ, tables, out))
            if bounded and value.lstrip("-").isdigit():
                value = str(min(int(value), 400 if key == "grid_points"
                                else 60))
            flag = "--" + key.replace("_", "-")
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if draw(st.integers(0, 4)) == 0:
        argv += ["--format", draw(st.sampled_from(["csv", "json", "xml"]))]
    if draw(st.integers(0, 5)) == 0:
        near = draw(st.sampled_from(near_misses(draw(st.sampled_from(
            sorted(schema) + ["format"])))))
        argv += ["--" + near.replace("_", "-"), draw(number)]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Table files, good and hostile, and a path for GP profiles."""
    root = tmp_path_factory.mktemp("fuzz")
    contents = {"table.csv": "r,v\n0.2,3\n1.0,1.5\n1.8,0\n",
                "one_column.csv": "0.5\n1.0\n",
                "header_only.csv": "r,v\n",
                "nan.csv": "0.5,nan\n1.0,1\n",
                "unsorted.csv": "1.0,1\n0.5,2\n"}
    for name, text in contents.items():
        (root / name).write_text(text)
    tables = [str(root / name) for name in contents]
    return tables + [str(root / "missing.csv"), str(root)], \
        str(root / "profile.csv")


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_main_ends_in_a_report_or_a_named_error(files, data):
    tables, out = files
    argv = data.draw(command_lines(tables, out), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 2, 3), (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
