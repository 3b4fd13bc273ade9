"""Batch command-line front end: sweeps, reports, and the invariant runner.

Commands: scatter, bounds, gp, tf, gp-tf-limit, foldy, bogolubov, verify.
Configuration comes from flags and/or a flat JSON file (flags win).  Reports
are CSV (with #-prefixed metadata lines) or JSON; identical configurations
produce byte-identical bodies apart from the timestamp metadata line.

Exit codes: 0 success, 2 configuration error, 3 numerical failure or
another library error, such as a potential or trap spec its parser rejects.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Dict, List, Optional, Tuple

from . import __version__
from .errors import BoseGasError, DomainError, ParseError, UnknownKey

__all__ = ["RunConfig", "Report", "parse_config", "serialize_config", "run",
           "main"]


# Parameter schema per command: name -> (python type, default).
# A "__required__" default marks a required key; None leaves the key unset.
_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "scatter": {
        "potential": (str, "__required__"),
        "mu": (float, 1.0),
        "dim": (int, 3),
        "abs_tol": (float, None),
        "rel_tol": (float, None),
    },
    "bounds": {
        "dim": (int, 3),
        "y_grid": (str, "1e-12:1e-4:50:log"),
        "rho_a2_grid": (str, "1e-30:1e-6:25:log"),
        "lower_c": (float, 8.9),  # LOWER_RATIO_C, test-pinned
    },
    "gp": {
        "trap": (str, "harmonic"),
        "dim": (int, 3),
        "n": (float, 1.0),
        "coupling": (float, "__required__"),
        "mu_const": (float, 1.0),
        "grid_points": (int, 2000),
        "profile_out": (str, None),
    },
    "tf": {
        "trap": (str, "harmonic"),
        "dim": (int, 3),
        "n": (float, 1.0),
        "coupling": (float, "__required__"),
        "mu_const": (float, 1.0),
    },
    "gp-tf-limit": {
        "trap": (str, "harmonic"),
        "dim": (int, 3),
        "g_grid": (str, "10:10000:4:log"),
        "grid_points": (int, 2000),
    },
    "foldy": {
        "rho_grid": (str, "1:256:3:log"),
        "mu_const": (float, 1.0),
    },
    "bogolubov": {
        "a_value": (float, 5.0),
        "b_value": (float, 3.0),
        "n_max": (int, 120),
    },
    "verify": {},
}

# Size ceilings, checked at parse time; the README gives their measured costs
_CEILINGS = {"grid_points": 10 ** 5, "n_max": 10 ** 5}
_MAX_SWEEP_POINTS = 10 ** 6


@dataclass(frozen=True)
class RunConfig:
    command: str
    parameters: dict
    output_path: Optional[str] = None
    output_format: str = "csv"


@dataclass
class Report:
    """A command's rows, each keyed by the column names in column order.

    Both formats read one table of cell text, built when the report is first
    serialised; change no row after that."""
    metadata: dict
    columns: List[Tuple[str, str]]   # (name, unit)
    rows: List[dict] = field(default_factory=list)

    @functools.cached_property
    def _cells(self) -> List[Tuple[list, list]]:
        """Per column, the CSV and the JSON text of every cell."""
        return [_format_column([row[name] for row in self.rows])
                for name, _ in self.columns]

    def to_csv(self) -> str:
        lines = [f"# {key} = {self.metadata[key]}"
                 for key in ("command", "config", "version", "timestamp")]
        units = "; ".join(f"{name} [{unit}]" for name, unit in self.columns)
        lines.append(f"# units: {units}")
        lines.append(",".join(name for name, _ in self.columns))
        lines.extend(map(",".join, zip(*(csv for csv, _ in self._cells))))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """What json.dumps(indent=2) writes, with the rows joined from cells."""
        head = json.dumps({"metadata": dict(self.metadata, columns=[
            {"name": n, "unit": u} for n, u in self.columns]), "rows": []},
            indent=2)[:-len("[]\n}")]
        if not self.rows:
            return head + "[]\n}\n"
        row = ",\n".join(f"      {json.dumps(name).replace('%', '%%')}: %s"
                         for name, _ in self.columns)
        row = "    {\n" + row + "\n    }"
        body = ",\n".join(row % cells
                          for cells in zip(*(js for _, js in self._cells)))
        return head + "[\n" + body + "\n  ]\n}\n"


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _format_column(values: list) -> Tuple[list, list]:
    """The CSV and the JSON text of each value, each formatted once: floats
    by repr (NaN and Infinity in JSON), bools True/False and true/false,
    other values by str (quoted in CSV where RFC 4180 needs it) and by
    json.dumps; numpy scalars as the Python scalars they hold."""
    if all(isinstance(v, float) for v in values):
        csv = list(map(float.__repr__, values))
        if all(map(math.isfinite, values)):
            return csv, csv
        return csv, [_JSON_NONFINITE.get(c, c) for c in csv]
    np = sys.modules.get("numpy")   # without it no value is a numpy scalar
    if all(isinstance(v, (bool, np.bool_) if np else bool) for v in values):
        return ([("False", "True")[bool(v)] for v in values],
                [("false", "true")[bool(v)] for v in values])
    if np:
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
    return [_csv_quote(str(v)) for v in values], list(map(json.dumps, values))


def _csv_quote(text: str) -> str:
    """RFC 4180: quote a cell holding , " CR or LF; double inner quotes."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _coerce(key, raw, typ):
    """raw as typ, read as the flag's text would be: a JSON bool is no
    number, and an int key takes only integral numbers."""
    try:
        if isinstance(raw, bool) and typ is not str:
            raise TypeError
        value = raw if isinstance(raw, typ) else typ(raw)
        if typ is int and isinstance(raw, float) and value != raw:
            raise ValueError        # int(300.7) would read 300
        return value
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"parameter {key!r}: cannot convert {raw!r} "
                         f"to {typ.__name__}") from exc


def _suggest(kind, name, valid):
    import difflib      # only a config error pays for it
    close = difflib.get_close_matches(name, valid, n=1)
    hint = f"; did you mean {close[0]!r}?" if close else ""
    return f"unknown {kind} {name!r}{hint}"


def parse_config(argv: List[str]) -> RunConfig:
    """Build a RunConfig from flags plus an optional --config JSON file.

    Flags override file values.  Unknown keys are rejected at parse time with
    the nearest valid key named in the error.
    """
    flags: Dict[str, str] = {}
    positional: List[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token.startswith("--"):
            key = token[2:].replace("-", "_")
            if "=" in key:
                key, value = key.split("=", 1)
            else:
                if i + 1 >= len(argv):
                    raise ParseError(f"flag {token!r} is missing a value")
                value = argv[i + 1]
                i += 1
            flags[key] = value
        elif token.startswith("-"):
            raise ParseError(f"unrecognized token {token!r}")
        else:
            positional.append(token)
        i += 1
    if len(positional) > 1:
        raise ParseError(f"at most one positional command, got {positional}")

    merged: Dict[str, object] = {}
    if "config" in flags:
        path = flags.pop("config")
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config file {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file {path!r}: line {exc.lineno}: "
                             f"{exc.msg}")
        if not isinstance(loaded, dict):
            raise ParseError("config file must hold a flat JSON object")
        merged.update({str(k).replace("-", "_"): v for k, v in loaded.items()})
    merged.update(flags)
    if positional:
        merged["command"] = positional[0]

    command = merged.pop("command", None)
    if command is None:
        raise ParseError(f"no command given; choose from "
                         f"{', '.join(sorted(_SCHEMAS))}")
    command = str(command)
    if command not in _SCHEMAS:
        raise ParseError(_suggest("command", command, _SCHEMAS))
    schema = _SCHEMAS[command]
    valid = set(schema) | {"output", "format"}

    parameters: Dict[str, object] = {}
    out_path: Optional[str] = None
    out_format = "csv"
    for key, raw in merged.items():
        if key not in valid:
            raise UnknownKey(_suggest("key", key, sorted(valid)))
        if raw is None:     # a JSON null leaves the key unset
            continue
        if key == "output":
            out_path = str(raw)
        elif key == "format":
            out_format = str(raw)
            if out_format not in ("csv", "json"):
                raise ParseError(f"format must be csv or json, "
                                 f"got {out_format!r}")
        else:
            value = parameters[key] = _coerce(key, raw, schema[key][0])
            if key in _CEILINGS and value > _CEILINGS[key]:
                raise ParseError(f"parameter {key!r}: {value} exceeds the "
                                 f"ceiling {_CEILINGS[key]}")
    for key, (typ, default) in schema.items():
        if key not in parameters:
            if default == "__required__":
                raise ParseError(f"command {command!r} requires --"
                                 + key.replace("_", "-"))
            if default is not None:
                parameters[key] = default
    return RunConfig(command=command, parameters=parameters,
                     output_path=out_path, output_format=out_format)


def serialize_config(config: RunConfig) -> str:
    """Flat JSON form of a RunConfig; parse_config on it round-trips."""
    flat: Dict[str, object] = {"command": config.command,
                               "format": config.output_format}
    if config.output_path is not None:
        flat["output"] = config.output_path
    flat.update(config.parameters)
    return json.dumps(flat, sort_keys=True)


def _parse_sweep(text: str):
    """`lo:hi:points` (linear) or `lo:hi:points:log`, as a numpy array."""
    import numpy as np
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ParseError(f"sweep {text!r}: expected lo:hi:points[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"sweep {text!r}: {exc}")
    if not all(map(math.isfinite, (lo, hi, hi - lo))):
        raise ParseError(f"sweep {text!r}: lo, hi and hi - lo must be finite")
    if not 1 <= n <= _MAX_SWEEP_POINTS:
        raise ParseError(f"sweep {text!r}: needs 1 to {_MAX_SWEEP_POINTS} "
                         f"points")
    if len(parts) == 4:
        if parts[3] != "log":
            raise ParseError(f"sweep suffix must be 'log', got {parts[3]!r}")
        if lo <= 0 or hi <= 0:
            raise ParseError("log sweep needs lo > 0 and hi > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# --- command implementations -----------------------------------------------------
# Each runner imports what it calls: a command loads only its own modules.


def _run_scatter(config: RunConfig) -> Tuple[list, list]:
    from . import potentials, scattering
    pars = config.parameters
    p = potentials.parse_pair_potential(pars["potential"], dimension=pars["dim"])
    # a tolerance that is not given keeps the solver's default
    tol = replace(scattering.DEFAULT_TOL, **{
        key: pars[key] for key in ("abs_tol", "rel_tol")
        if pars.get(key) is not None})
    sol = scattering.solve_zero_energy(p, pars["mu"], tol=tol)
    try:
        born = potentials.born_integral(p)
    except BoseGasError:
        born = math.nan
    row = {
        "potential": pars["potential"],
        "dim": p.dimension,
        "mu": pars["mu"],
        "a": sol.a,
        "s": sol.s,
        "born_integral": born,
        # a solve that misses its convergence gate raises GridTooCoarse
        # (exit 3), so every reported row is converged
        "converged": True,
    }
    columns = [("potential", "spec"), ("dim", "1"),
               ("mu", "energy*length^2"), ("a", "length"),
               ("s", "dimensionless"), ("born_integral", "energy*length^dim"),
               ("converged", "bool")]
    return columns, [row]


def _run_bounds(config: RunConfig) -> Tuple[list, list]:
    import numpy as np
    from . import homogeneous
    pars = config.parameters
    if pars["dim"] not in (2, 3):
        raise DomainError("dimension must be 2 or 3")
    if pars["dim"] == 3:
        ys = _parse_sweep(pars["y_grid"])
        outside = np.flatnonzero((ys <= 0.0) | (ys >= 1.0))
        if outside.size:
            # the first row outside 0 < Y < 1 names the error, as row by row
            ys = ys[:outside[0] + 1]
        lower = homogeneous.dilute_lower_ratio(ys, pars["lower_c"])
        values = [ys, homogeneous.dyson_upper_ratio(ys),
                  homogeneous.dyson_upper_ratio(ys, True),
                  lower, lower > 0.0, homogeneous.cell_lower_ratio(ys)]
        rows = [{"Y": y, "dyson_upper": up, "dyson_upper_improved": up_i,
                 "lower_ratio": low, "lower_valid": valid,
                 "dyson_lower_const": homogeneous.DYSON_LOWER_RATIO,
                 "cell_lower_ratio": cell}
                for y, up, up_i, low, valid, cell
                in zip(*(v.tolist() for v in values))]
        columns = [("Y", "dimensionless"), ("dyson_upper", "dimensionless"),
                   ("dyson_upper_improved", "dimensionless"),
                   ("lower_ratio", "dimensionless"), ("lower_valid", "bool"),
                   ("dyson_lower_const", "dimensionless"),
                   ("cell_lower_ratio", "dimensionless")]
        return columns, rows

    xs = _parse_sweep(pars["rho_a2_grid"])

    def one2(x):
        if x <= 0.0:
            raise DomainError("rho_a2 must be positive")
        p = homogeneous.DiluteParams(rho=1.0, a=math.sqrt(x), mu=1.0, d=2)
        upper, lower = homogeneous.schick_2d_bounds(p)
        return {"rho_a2": x, "leading": homogeneous.leading_energy(p),
                "upper": upper, "lower": lower}

    rows = [one2(float(x)) for x in xs]
    columns = [("rho_a2", "dimensionless"), ("leading", "energy"),
               ("upper", "energy"), ("lower", "energy")]
    return columns, rows


def _run_gp(config: RunConfig) -> Tuple[list, list]:
    from . import gp, potentials
    pars = config.parameters
    trap = potentials.parse_trap_potential(pars["trap"], dimension=pars["dim"])
    state = gp.gp_minimize(trap, pars["n"], pars["coupling"],
                           mu_const=pars["mu_const"],
                           grid_points=pars["grid_points"])
    if pars.get("profile_out"):
        gp.export_profile(state, pars["profile_out"])
    row = {
        "trap": pars["trap"], "dim": pars["dim"], "N": pars["n"],
        "coupling": pars["coupling"], "E": state.E,
        "kinetic": state.kinetic, "trap_energy": state.trap_energy,
        "interaction": state.interaction, "mu_gp": state.mu_gp,
        "rho_bar": gp.mean_density(state), "residual": state.residual,
        "iterations": state.iterations, "newton_steps": state.newton_steps,
    }
    columns = [("trap", "spec"), ("dim", "1"), ("N", "count"),
               ("coupling", "length|dimensionless"), ("E", "energy"),
               ("kinetic", "energy"), ("trap_energy", "energy"),
               ("interaction", "energy"), ("mu_gp", "energy"),
               ("rho_bar", "length^-dim"), ("residual", "dimensionless"),
               ("iterations", "count"), ("newton_steps", "count")]
    return columns, [row]


def _run_tf(config: RunConfig) -> Tuple[list, list]:
    from . import potentials, thomas_fermi as tf
    pars = config.parameters
    trap = potentials.parse_trap_potential(pars["trap"], dimension=pars["dim"])
    state = tf.tf_solve(trap, pars["n"], pars["coupling"],
                        mu_const=pars["mu_const"])
    row = {
        "trap": pars["trap"], "dim": pars["dim"], "N": pars["n"],
        "coupling": pars["coupling"], "mu_tf": state.mu_tf,
        "support_radius": state.support_radius, "E_tf": state.E_tf,
        "identity_gap": tf.tf_chemical_identity_gap(state),
    }
    columns = [("trap", "spec"), ("dim", "1"), ("N", "count"),
               ("coupling", "length|dimensionless"), ("mu_tf", "energy"),
               ("support_radius", "length"), ("E_tf", "energy"),
               ("identity_gap", "dimensionless")]
    return columns, [row]


def _run_gp_tf_limit(config: RunConfig) -> Tuple[list, list]:
    from . import gp, potentials
    pars = config.parameters
    trap = potentials.parse_trap_potential(pars["trap"], dimension=pars["dim"])
    gs = _parse_sweep(pars["g_grid"])
    rows = gp.gp_tf_limit(trap, [float(g) for g in gs],
                           grid_points=pars["grid_points"])
    columns = [("g", "dimensionless"), ("E_gp", "energy"),
               ("E_tf", "energy"), ("ratio", "dimensionless"),
               ("l1_rescaled", "dimensionless")]
    return columns, rows


def _run_foldy(config: RunConfig) -> Tuple[list, list]:
    from . import bogolubov
    pars = config.parameters
    rhos = _parse_sweep(pars["rho_grid"])
    rows = [bogolubov.foldy_report(float(r), pars["mu_const"]) for r in rhos]
    columns = [("rho", "length^-3"), ("mode_integral", "energy"),
               ("closed_form", "energy"),
               ("displayed_prefactor_form", "energy"),
               ("numeric_over_closed", "dimensionless"),
               ("closed_over_displayed", "dimensionless"),
               ("correlation_length", "length"), ("mean_distance", "length"),
               ("correlation_over_mean", "dimensionless")]
    return columns, rows


def _run_bogolubov(config: RunConfig) -> Tuple[list, list]:
    from . import bogolubov
    pars = config.parameters
    a_val, b_val = pars["a_value"], pars["b_value"]
    mode = bogolubov.BogolubovMode(a_val, b_val)
    exact = math.sqrt(a_val ** 2 - b_val ** 2) - a_val
    row = {
        "A": a_val, "B": b_val, "alpha": mode.alpha, "D": mode.D,
        "ground_bound_coeff": mode.ground_bound_coeff,
        "fock_energy": bogolubov.fock_oracle(a_val, b_val, pars["n_max"]),
        "exact_pair_energy": exact,
    }
    columns = [("A", "energy"), ("B", "energy"), ("alpha", "dimensionless"),
               ("D", "energy"), ("ground_bound_coeff", "energy"),
               ("fock_energy", "energy"), ("exact_pair_energy", "energy")]
    return columns, [row]


def _run_verify(config: RunConfig) -> Tuple[list, list]:
    from .verify import run_all
    rows = [{"suite": r.entry.suite, "check": r.entry.name,
             "passed": r.passed, "observed": r.observed,
             "tolerance": r.entry.tolerance,
             "margin": (r.entry.tolerance / r.observed if r.observed
                        else math.inf),
             "detail": r.detail} for r in run_all()]
    columns = [("suite", "name"), ("check", "name"), ("passed", "bool"),
               ("observed", "per check"), ("tolerance", "per check"),
               ("margin", "tolerance/observed"), ("detail", "text")]
    return columns, rows


_RUNNERS = {
    "scatter": _run_scatter,
    "bounds": _run_bounds,
    "gp": _run_gp,
    "tf": _run_tf,
    "gp-tf-limit": _run_gp_tf_limit,
    "foldy": _run_foldy,
    "bogolubov": _run_bogolubov,
    "verify": _run_verify,
}


def run(config: RunConfig) -> Report:
    """Execute a command and assemble its report (deterministic per config)."""
    columns, rows = _RUNNERS[config.command](config)
    metadata = {
        "command": config.command,
        "config": serialize_config(config),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return Report(metadata=metadata, columns=columns, rows=rows)


_HELP_FOOTER = f"""
Potential specs: hardcore:r0=X | squarewell:r0=X,v0=Y | softsphere:r0=X,v0=Y
                 | table:path=FILE
Trap specs: harmonic[:scale=S] | box:l=L | power:s=S[,scale=C]
Sweeps use lo:hi:points[:log], at most {_MAX_SWEEP_POINTS} points.
  bounds reads --y-grid in 3D and --rho-a2-grid in 2D; --abs-tol and
  --rel-tol are the ODE tolerances of scatter.
Common keys: --config FILE (flat JSON; flags override), --output PATH,
  --format csv|json.
Exit codes: 0 ok, 2 config error, 3 numerical failure or a rejected spec.
"""


def _help() -> str:
    """Usage text: every command's keys with their defaults, from _SCHEMAS."""
    lines = ["bosegas COMMAND [--key value ...]", "",
             "Commands and their keys (defaults in parentheses):"]
    for command, schema in _SCHEMAS.items():
        items = []
        for key, (_typ, default) in schema.items():
            shown = {"__required__": "required", None: "unset"}.get(
                default, default)
            ceiling = f"; at most {_CEILINGS[key]}" if key in _CEILINGS else ""
            items.append(f"--{key.replace('_', '-')} ({shown}{ceiling})")
        row = [command.ljust(11)]
        for item in items or ["(no keys; runs the invariant battery)"]:
            if len(row) > 1 and len("  ".join(row + [item])) > 75:
                lines.append("  " + "  ".join(row))
                row = [" " * 11]
            row.append(item)
        lines.append("  " + "  ".join(row))
    return "\n".join(lines) + "\n" + _HELP_FOOTER


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_help(), end="")
        return 0
    try:
        config = parse_config(argv)
    except (ParseError, UnknownKey, DomainError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except (ParseError, UnknownKey) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BoseGasError as exc:
        print(f"{config.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"{config.command}: io error: {exc}", file=sys.stderr)
        return 3
    text = report.to_csv() if config.output_format == "csv" \
        else report.to_json()
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if config.command == "verify":
        failed = [row for row in report.rows if not row["passed"]]
        print(f"verify: {len(report.rows) - len(failed)} passed, "
              f"{len(failed)} failed", file=sys.stderr)
        if failed:
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
