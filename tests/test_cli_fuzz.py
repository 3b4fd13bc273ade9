"""Fuzz of cli.main: every drawn command line ends in a report (exit 0) or a
named error (exit 2 or 3), never in a traceback or a warning.

Flags are drawn per command from the CLI schema, with hostile values (NaN,
infinities, zero, negatives, 1e308, text) and near-miss unknown keys; the
potential and trap specs are drawn the same way.  Flat JSON configs are
drawn too, with values of every JSON type: huge ints, floats, strings,
bools, null, lists and objects.  Only sizes are bounded, for runtime: at
most 400 GP grid points, 5 sweep points and n_max 60.  A drawn `verify`
line always carries a key that `verify` does not take, or a format that no
command writes, so it ends at parse time with exit 2: one full `verify`
run is acceptance criterion 18's.
"""

import contextlib
import io
import json
import math
import os
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


# keys that `verify` does not take: every other command's, and near misses
# of `format`
NOT_VERIFY = sorted(set().union(*_SCHEMAS.values()) | set(near_misses("format")))


@st.composite
def command_lines(draw, tables, out):
    command = draw(st.sampled_from(sorted(_SCHEMAS)))
    schema = _SCHEMAS[command]
    argv = [command]
    for key, (typ, _default) in schema.items():
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
    if command == "verify":
        argv += draw(st.one_of(
            st.sampled_from(NOT_VERIFY).map(
                lambda key: ["--" + key.replace("_", "-"), "1"]),
            st.just(["--format", "xml"])))
    return argv


# a drawn size above its cap must exceed the parse-time ceiling of 10^5
CAPS = {"grid_points": 400, "n_max": 60}
HUGE = [10 ** 6, 10 ** 30, 10 ** 400, -(10 ** 30), 1e6, 1e300, math.inf,
        -math.inf, math.nan]


def json_values(key, typ, tables, out, hostile):
    """One key's value in a flat config: what its flag would read (the
    flag's text, or a JSON number for a numeric key), or, if hostile, a
    value of any JSON type: a huge or non-integral number, a bool, null, a
    list or an object."""
    if key == "profile_out":        # any other value names a file to write
        return st.sampled_from([out, None])
    cap = CAPS.get(key)
    if cap is None:
        numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                            st.integers(-10 ** 30, 10 ** 30))
    else:
        numbers = st.one_of(st.integers(-5, cap), st.floats(-5.0, float(cap)))
    text = values(key, typ, tables, out)
    natural = text if typ is str else st.one_of(text, numbers)
    if not hostile:
        return natural
    odd = st.one_of(numbers, st.sampled_from(HUGE), st.booleans(),
                    st.lists(natural, max_size=2),
                    st.dictionaries(st.sampled_from(["", key]), natural,
                                    max_size=2))
    # null leaves a size unset: the default of thousands
    return odd if cap is not None else st.one_of(odd, st.none())


@st.composite
def json_configs(draw, tables, out):
    """A flat config object and the argv that reads it (the command comes
    from the file or, at times, from the command line)."""
    command = draw(st.sampled_from(sorted(_SCHEMAS)))
    schema = _SCHEMAS[command]

    def value(key, typ):
        hostile = draw(st.integers(0, 3)) == 0
        return draw(json_values(key, typ, tables, out, hostile))

    config = {}
    for key, (typ, _default) in schema.items():
        if key in CAPS or draw(st.integers(0, 3)) > 0:
            config[key] = value(key, typ)
    if draw(st.integers(0, 4)) == 0:
        config["format"] = draw(st.one_of(
            st.sampled_from(["csv", "json", "xml"]), st.integers(),
            st.booleans(), st.none()))
    if draw(st.integers(0, 5)) == 0:
        near = draw(st.sampled_from(near_misses(draw(st.sampled_from(
            sorted(schema) + ["format"])))))
        config[near] = value(near, float)
    if command == "verify":
        key = draw(st.sampled_from(NOT_VERIFY))
        config[key] = value(key, float)
    if draw(st.booleans()):
        return config, [command]
    config["command"] = command if draw(st.integers(0, 3)) \
        else value("command", float)
    return config, []


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
    assert code in ((2,) if argv[0] == "verify" else (0, 2, 3)), \
        (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_json_config_ends_in_a_report_or_a_named_error(files, data):
    tables, out = files
    config, argv = data.draw(json_configs(tables, out), label="config")
    path = os.path.join(os.path.dirname(out), "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main(argv + ["--config", path])
    verify = "verify" in argv or config.get("command") == "verify"
    assert code in ((2,) if verify else (0, 2, 3)), (config, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
