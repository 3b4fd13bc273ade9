"""The three workloads: seeded inputs, how one op runs, and how it is checked.

Every workload is a closed loop with one caller: the next op starts only
after the previous one has finished and been checked.  Inputs come from the
benchmark seed alone; bosegas receives only the generated inputs.

Parameters are drawn as randomly shifted Halton points, one stream per op
family, in antithetic pairs (u, 1 - u), so that whatever prefix of the batch
a time-limited run completes covers each family's ranges evenly and its cost
stays steady from seed to seed without narrowing any range.
"""

from __future__ import annotations

import importlib
import json
import math
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracles as orc
from child import MARKER
from tracer import outermost_seconds, parse_importtime, top_level_seconds

CHILD = Path(__file__).resolve().parent / "child.py"
_PRIMES = (2, 3, 5, 7, 11)
_BOSEGAS_FILE = re.compile(r'[/\\]bosegas[/\\](\w+)\.py$')


@dataclass
class Op:
    kind: str                    # op family; one untimed warm-up per kind
    key: str                     # the input; repeats must give identical bodies
    params: dict                 # what the oracle needs to know about the input
    argv: list = field(default_factory=list)   # CLI arguments, if any
    expect: tuple = (0,)         # accepted exit codes (cli-cold)


class _Halton:
    """Randomly shifted Halton points in antithetic pairs, one stream per
    family: draws 2k - 1 and 2k are u_k and 1 - u_k."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.shift = {}
        self.index = {}

    def draw(self, family: str, *ranges):
        """One point; each range is (lo, hi) or (lo, hi, "log")."""
        if family not in self.shift:
            self.shift[family] = [self.rng.random() for _ in _PRIMES]
            self.index[family] = 0
        self.index[family] += 1
        out = []
        k = self.index[family]
        for dim, rng in enumerate(ranges):
            u = (_radical_inverse((k + 1) // 2, _PRIMES[dim])
                 + self.shift[family][dim]) % 1.0
            if k % 2 == 0:
                u = 1.0 - u
            lo, hi = rng[0], rng[1]
            x = lo * (hi / lo) ** u if rng[2:] == ("log",) else lo + u * (hi - lo)
            out.append(float(f"{x:.6g}"))    # the value the CLI will parse
        return out


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _error_key(module: str, name: str) -> str:
    return f"{module}.errors.{name}"


def error_of(exc: BaseException) -> str:
    """`<module>.errors.<Name>`, the module being the innermost bosegas frame."""
    module = "bench"
    tb = exc.__traceback__
    while tb is not None:
        match = _BOSEGAS_FILE.search(tb.tb_frame.f_code.co_filename)
        if match:
            module = match.group(1)
        tb = tb.tb_next
    return _error_key(module, type(exc).__name__)


def _error_from_stderr(stderr: str) -> str:
    frames = [m.group(1) for m in map(_BOSEGAS_FILE.search,
                                      re.findall(r'File "([^"]+)"', stderr)) if m]
    last = stderr.strip().splitlines()[-1] if stderr.strip() else "?"
    return _error_key(frames[-1] if frames else "cli",
                      last.split(":")[0].strip() or "?")


def _body(text: str) -> str:
    """A report without its timestamp line (CSV) or key (JSON)."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp")
                   and not line.lstrip().startswith('"timestamp"'))


# --- report checks shared by cli-cold and warm-sweeps ---------------------------

def _trap_degree(params: dict) -> float:
    """Homogeneity degree s of the op's trap: `harmonic` or `power:s=S`."""
    spec = params.get("trap", "harmonic")
    return float(spec.split("s=")[1]) if spec.startswith("power:") else 2.0


def check_report(command: str, params: dict, rows: list, gate: orc.Gate) -> None:
    """Closed-form checks on one report's rows (CSV strings or numbers)."""
    num = [{k: _number(v) for k, v in row.items()} for row in rows]
    gate.holds("report has rows", len(num) > 0)
    if command == "scatter":
        a = num[0]["a"]
        if params["family"] == "hardcore3d":
            gate.close("a = R0", orc.rel_err(a, params["r0"]), orc.HARD_CORE_TOL)
        else:
            exact = orc.square_well_a(params["r0"], params["v0"], params["mu"])
            gate.close("a vs square-well closed form", orc.rel_err(a, exact),
                       orc.SQUARE_WELL_TOL)
    elif command == "bounds" and params.get("dim", 3) == 3:
        gate.holds("one row per Y point", len(num) == params["points"])
        for row in num:
            gate.holds("lower <= 1 <= upper",
                       row["lower_ratio"] <= 1.0 <= row["dyson_upper"])
            gate.holds("cell ratio <= 1",
                       row["cell_lower_ratio"] <= 1.0 + orc.CELL_RATIO_SLACK)
    elif command == "bounds":
        for row in num:
            gate.holds("2D lower <= leading <= upper",
                       row["lower"] <= row["leading"] <= row["upper"])
    elif command == "tf":
        d = params.get("dim", 3)
        s = _trap_degree(params)
        n = params.get("n", 1.0)
        g = params["coupling"] if d == 3 else 1.0
        mu = orc.tf_mu(n, g, d, s)
        gate.close("mu_tf closed form", orc.rel_err(num[0]["mu_tf"], mu),
                   orc.TF_CLOSED_TOL)
        gate.close("E_tf closed form",
                   orc.rel_err(num[0]["E_tf"], orc.tf_energy(n, mu, d, s)),
                   orc.TF_CLOSED_TOL)
        gate.close("chemical identity gap", num[0]["identity_gap"],
                   orc.TF_IDENTITY_TOL)
    elif command == "gp-tf-limit":
        ratios = [row["ratio"] for row in num]
        gate.holds("E_gp / E_tf > 1", all(r > 1.0 for r in ratios))
        gate.holds("ratio decreases with g",
                   all(b < a for a, b in zip(ratios, ratios[1:])))
    elif command == "foldy":
        for row in num:
            gate.close("foldy numeric / closed", abs(row["numeric_over_closed"] - 1.0),
                       orc.FOLDY_TOL)
    elif command == "bogolubov":
        exact = orc.pair_energy(params["a_value"], params["b_value"])
        fock = num[0]["fock_energy"]
        gate.close("fock oracle vs sqrt(A^2-B^2)-A", abs(fock - exact), orc.FOCK_TOL)
        gate.holds("fock oracle never below the exact energy",
                   fock >= exact - orc.FOCK_BELOW_TOL)
    elif command == "gp":
        gate.holds("finite energy", math.isfinite(num[0]["E"]))


def _number(value):
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def parse_csv(text: str) -> list:
    """Rows of a CSV report.  The writer does not quote fields, and a scatter
    report's first column (the potential spec) can hold commas, so surplus
    fields are joined back into the first column."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        extra = len(fields) - len(names)
        if extra > 0:
            fields = [",".join(fields[:extra + 1])] + fields[extra + 1:]
        rows.append(dict(zip(names, fields)))
    return rows


def _argv(command: str, params: dict) -> list:
    argv = [command]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), repr(value) if isinstance(value, float)
                 else str(value)]
    return argv


def _cli_op(kind, command, params, oracle=None, expect=(0,)):
    argv = _argv(command, params)
    return Op(kind=kind, key=" ".join(argv), params=dict(oracle or {}, **params),
              argv=argv, expect=expect)


# --- workloads -------------------------------------------------------------------

class Workload:
    """A batch of rounds, each a fixed mix of op kinds in seeded order.

    A timed run works through the batch until its time is up; the batch is
    long enough that it rarely wraps, so every op of a run is a fresh point
    of the Halton sequence.  The traced run takes the first `trace_rounds`
    rounds, a fixed set per seed, so that its counts repeat exactly.
    """

    name = ""
    in_process = True
    tail_pct = 90
    rounds = 1
    trace_rounds = 1

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        rounds, self.probes = self.batch(random.Random(f"{self.name}:{seed}"))
        self.ops = [op for group in rounds for op in group]
        self.trace_ops = [op for group in rounds[:self.trace_rounds] for op in group]
        self.warm = []

    def batch(self, rng):
        """(list of rounds of ops, list of known-defect probes)."""
        raise NotImplementedError

    def load(self) -> None:
        """Import the package (in-process workloads)."""

    def warm_up(self) -> None:
        """One untimed op of each kind: lazy imports, .pyc writes, page cache.

        The outputs are kept, to be checked after set-up; the timed loop
        repeats these inputs, which exercises the determinism check."""
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    self.warm.append((op, self.execute(op), None))
                except Exception as exc:    # counted when the op is checked
                    self.warm.append((op, None, error_of(exc)))

    def close(self) -> None:
        """Remove what the run left behind."""

    def execute(self, op: Op, tracer=None):
        """Run one op; a traced run passes the tracer for the op's own spans."""
        raise NotImplementedError

    def check(self, op: Op, out, gate: orc.Gate):
        """Check one op's output; return (error key or None, report body)."""
        raise NotImplementedError


def verify_import(file: str, root: Path) -> None:
    """The package under test must be the checkout's, not an installed one."""
    if not Path(file).resolve().is_relative_to(root / "src"):
        raise RuntimeError(f"bosegas imported from {file}, not from the "
                           f"checkout under test {root}")


class CliCold(Workload):
    """`python -m bosegas.cli <cmd>` as sequential subprocesses."""

    name = "cli-cold"
    in_process = False
    tail_pct = 70
    rounds = 6

    def batch(self, rng):
        h = _Halton(rng)
        self.tmp = Path(".perfbench_out") / f"cli-cold-{self.seed}"
        rounds = []
        for r in range(self.rounds):
            (r0,) = h.draw("hardcore", (0.1, 10.0, "log"))
            sw = h.draw("squarewell", (0.3, 2.0), (0.05, 40.0), (0.5, 2.0))
            y_lo, y_hi = h.draw("bounds", (1e-14, 1e-10, "log"), (1e-5, 1e-4, "log"))
            (g_gp,) = h.draw("gp", (0.1, 1e5, "log"))
            (g_tf,) = h.draw("tf", (0.1, 1e5, "log"))
            g_lo, g_hi = h.draw("gp-tf-limit", (5.0, 20.0), (5e3, 2e4))
            rho_lo, rho_hi = h.draw("foldy", (0.5, 2.0), (128.0, 512.0))
            a_val, frac = h.draw("bogolubov", (0.5, 10.0), (0.05, 0.95))
            ops = [
                _cli_op("scatter", "scatter", {"potential": f"hardcore:r0={r0!r}"},
                        {"family": "hardcore3d", "r0": r0}),
                _cli_op("scatter", "scatter",
                        {"potential": f"squarewell:r0={sw[0]!r},v0={sw[1]!r}",
                         "mu": sw[2]},
                        {"family": "well3d", "r0": sw[0], "v0": sw[1]}),
                _cli_op("bounds", "bounds", {"y_grid": f"{y_lo!r}:{y_hi!r}:50:log"},
                        {"points": 50}),
                _cli_op("gp", "gp", {"coupling": g_gp, "profile_out":
                                     str(self.tmp / f"profile-{r}.csv")}),
                _cli_op("tf", "tf", {"coupling": g_tf}),
                _cli_op("gp-tf-limit", "gp-tf-limit",
                        {"g_grid": f"{g_lo!r}:{g_hi!r}:4:log"}),
                _cli_op("foldy", "foldy", {"rho_grid": f"{rho_lo!r}:{rho_hi!r}:3:log"}),
                _cli_op("bogolubov", "bogolubov",
                        {"a_value": a_val, "b_value": float(f"{a_val * frac:.6g}")}),
                _cli_op("error", "gp", {"coupling": g_gp, "coupling_strength": 2},
                        {"error": "UnknownKey"}, expect=(2,)),
                _cli_op("error", "gp", {"coupling": -1.0},
                        {"error": "NegativeCoupling"}, expect=(3,)),
            ]
            rng.shuffle(ops)
            rounds.append(ops)
        probes = [_cli_op("known-defect", "gp", {"coupling": "nan"}, expect=(2, 3))]
        return rounds, probes

    def load(self):
        (self.root / self.tmp).mkdir(parents=True, exist_ok=True)

    def close(self):
        shutil.rmtree(self.root / self.tmp, ignore_errors=True)

    def execute(self, op, tracer=None):
        return subprocess.run([sys.executable, "-m", "bosegas.cli"] + op.argv,
                              capture_output=True, text=True, timeout=120,
                              cwd=self.root)

    def execute_traced(self, op, tracer, layers: dict):
        """Run the op through child.py under -X importtime, recording spans."""
        sidecar = self.root / self.tmp / "sidecar.json"
        sidecar.unlink(missing_ok=True)
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", str(CHILD),
                               str(sidecar)] + op.argv, capture_output=True,
                              text=True, timeout=120, cwd=self.root)
        t1 = perf_counter()
        tracer.counts["cli.report.bytes"] += len(proc.stdout)
        parent = tracer.add("op", t0, t1, -1)
        if sidecar.exists():
            info = json.loads(sidecar.read_text())
            tracer.add("import.bosegas_cli", *info["import"], parent)
            tracer.add("cli.main", *info["main"], parent)
            layers["cli.main_s"].append(info["main"][1] - info["main"][0])
        before, after = parse_importtime(proc.stderr, MARKER)
        layers["import.bosegas_cli_s"].append(top_level_seconds(before, "bosegas"))
        layers["import.scipy_s"].append(outermost_seconds(before, "scipy"))
        layers["import.lazy_s"].append(top_level_seconds(after))
        proc.stderr = "".join(
            line for line in proc.stderr.splitlines(keepends=True)
            if not line.startswith("import time:") and line.strip() != MARKER)
        return proc

    def check(self, op, proc, gate):
        if "Traceback" in proc.stderr or proc.returncode not in op.expect:
            if "Traceback" in proc.stderr:
                return _error_from_stderr(proc.stderr), None
            return _error_key("cli", f"Exit{proc.returncode}"), None
        if op.expect != (0,):
            gate.holds(f"stderr names {op.params.get('error')}",
                       op.params.get("error", "") in proc.stderr)
            return None, f"exit {proc.returncode}: {proc.stderr}"
        command = op.argv[0]
        check_report(command, op.params, parse_csv(proc.stdout), gate)
        if command == "gp":
            profile = self.root / op.params["profile_out"]
            lines = profile.read_text().splitlines() if profile.exists() else []
            header = lines.index("r,phi,rho") if "r,phi,rho" in lines else len(lines)
            gate.holds("profile has one line per grid point",
                       len(lines) - header - 1 == 2000)
        return None, _body(proc.stdout)


class Scatter(Workload):
    """solve_zero_energy, kinetic_fraction and energy_integral, in-process."""

    name = "scatter"
    tail_pct = 85
    rounds = 16
    trace_rounds = 3

    # Per round: the share of each family in the mix (step-plus-tail wells,
    # the tenth family, run as known-defect probes; see README.md).
    FAMILIES = ("well3d",) * 4 + ("stiff3d", "table3d", "hardcore3d", "well2d",
                                   "disc2d")

    def batch(self, rng):
        h = _Halton(rng)
        rounds = []
        for r in range(self.rounds):
            group = [self._op(h, rng, fam, k if fam == "well3d" else r % 4)
                     for k, fam in enumerate(self.FAMILIES)]
            rng.shuffle(group)
            rounds.append(group)
        probes = [self._op(h, rng, "steptail3d") for _ in range(6)]
        probes += [self._op(h, rng, "disc2d-near-limit") for _ in range(2)]
        return rounds, probes

    @staticmethod
    def _op(h, rng, fam, stratum=0):
        """One op of family `fam`.  The strength that sets most of a well's
        cost is drawn from quarter `stratum` of its range: the k-th 3D well
        of each round takes the k-th quarter, and the stiff well and the
        table of round r take quarter r mod 4."""
        ratio = rng.choice((2.0, 5.0, 20.0, 100.0))    # criterion 03's radii
        if fam in ("well3d", "stiff3d"):
            # stiffness spans a decade, so stiff wells are log-uniform in v0
            lo, hi = (math.log(400.0), math.log(4000.0)) if fam == "stiff3d" \
                else (0.05, 40.0)
            q = (hi - lo) / 4
            r0, v0, mu = h.draw(f"{fam}{stratum}", (0.3, 2.0),
                                (lo + stratum * q, lo + (stratum + 1) * q), (0.5, 2.0))
            if fam == "stiff3d":
                v0 = float(f"{math.exp(v0):.6g}")
            p = dict(kind="square-well", dim=3, r0=r0, v0=v0, mu=mu)
        elif fam == "well2d":
            r0, v0, mu = h.draw(fam, (0.3, 2.0), (0.05, 40.0), (0.5, 2.0))
            p = dict(kind="square-well", dim=2, r0=r0, v0=v0, mu=mu)
        elif fam == "table3d":
            q = (20.0 - 1.0) / 4
            reach, height, mu = h.draw(f"{fam}{stratum}", (0.5, 2.0),
                                       (1.0 + stratum * q, 1.0 + (stratum + 1) * q),
                                       (0.5, 2.0))
            radii = sorted(rng.uniform(0.1, 1.0) for _ in range(7)) + [1.0]
            table = tuple((float(f"{reach * x:.6g}"), float(f"{height * rng.random():.6g}"))
                          for x in radii)
            p = dict(kind="tabulated", dim=3, table=table, mu=mu)
        elif fam == "hardcore3d":
            r0, mu = h.draw(fam, (0.1, 10.0, "log"), (0.5, 2.0))
            p = dict(kind="hard-core", dim=3, r0=r0, mu=mu)
        elif fam == "steptail3d":
            r0, v0, mu, c_t, power = h.draw(fam, (0.3, 2.0), (0.05, 40.0), (0.5, 2.0),
                                            (0.1, 2.0), (4.0, 10.0))
            p = dict(kind="square-well", dim=3, r0=r0, v0=v0, mu=mu,
                     tail=(c_t, power))
        else:   # hard discs with a power tail; the near-limit ones decay like r^-(2..3)
            power_range = (3.0, 6.0) if fam == "disc2d" else (2.2, 3.0)
            r0, mu, c_t, power = h.draw(fam, (0.3, 2.0), (0.5, 2.0), (0.1, 2.0),
                                        power_range)
            p = dict(kind="hard-core", dim=2, r0=r0, mu=mu, tail=(c_t, power))
        p["family"], p["R_ratio"] = fam, ratio
        return Op(kind=fam, key=json.dumps(p, sort_keys=True), params=p)

    def load(self):
        self.scattering = importlib.import_module("bosegas.scattering")
        self.PairPotential = importlib.import_module("bosegas.potentials").PairPotential
        verify_import(self.scattering.__file__, self.root)

    def execute(self, op, tracer=None):
        p = op.params
        pot = self.PairPotential(kind=p["kind"], dimension=p["dim"],
                                 core_radius=p.get("r0", 0.0),
                                 strength=p.get("v0", 0.0), table=p.get("table"),
                                 tail=p.get("tail"))
        sol = self.scattering.solve_zero_energy(pot, p["mu"])
        s = self.scattering.kinetic_fraction(sol)
        energy = math.nan
        if p["dim"] == 3 and pot.tail is None:
            energy = self.scattering.energy_integral(sol, p["R_ratio"] * pot.range_radius)
        return sol.a, s, energy

    def check(self, op, out, gate):
        a, s, energy = out
        p, fam = op.params, op.params["family"]
        mu = p["mu"]
        if fam in ("well3d", "stiff3d"):
            gate.close("a vs square-well closed form",
                       orc.rel_err(a, orc.square_well_a(p["r0"], p["v0"], mu)),
                       orc.SQUARE_WELL_TOL)
        elif fam == "hardcore3d":
            gate.close("a = R0", orc.rel_err(a, p["r0"]), orc.HARD_CORE_TOL)
            gate.close("s = 1 for a hard core", abs(s - 1.0), orc.KINETIC_HARD_TOL)
        elif fam == "table3d":
            reach = p["table"][-1][0]
            gate.holds("0 <= a <= range", 0.0 <= a <= reach)
            gate.holds("8 pi mu a <= Born integral",
                       8.0 * math.pi * mu * a <= orc.born_3d(table=p["table"])
                       * (1.0 + orc.SQUARE_WELL_TOL))
        elif fam == "well2d":
            log_ratio = orc.square_well_log_2d(p["r0"], p["v0"], mu)
            if a > 0.0:
                gate.close("ln(R0/a) vs 2D closed form",
                           orc.rel_err(math.log(p["r0"] / a), log_ratio),
                           orc.SQUARE_WELL_TOL)
            else:
                gate.holds("a underflows only where the closed form does",
                           p["r0"] * math.exp(-log_ratio) == 0.0)
        elif fam == "steptail3d":
            gate.holds("a >= a of the step alone (a is monotone in v)",
                       a >= orc.square_well_a(p["r0"], p["v0"], mu)
                       * (1.0 - orc.SQUARE_WELL_TOL))
            gate.holds("8 pi mu a <= Born integral",
                       8.0 * math.pi * mu * a <= orc.born_3d(
                           step=(p["r0"], p["v0"]), tail=p["tail"])
                       * (1.0 + orc.SQUARE_WELL_TOL))
        else:
            gate.holds("a >= R0 for a hard disc plus a tail",
                       a >= p["r0"] * (1.0 - orc.HARD_CORE_TOL))
        if p["dim"] == 3:
            gate.holds("0 < s <= 1", 0.0 < s <= 1.0 + orc.KINETIC_FRACTION_SLACK)
        if not math.isnan(energy):
            R = p["R_ratio"] * (p["table"][-1][0] if fam == "table3d" else p["r0"])
            gate.close("energy-integral identity",
                       orc.rel_err(energy, orc.energy_identity(mu, a, R)),
                       orc.ENERGY_IDENTITY_TOL)
        return None, repr(out)


class WarmSweeps(Workload):
    """cli.run(cli.parse_config(argv)) plus both serialisations, in-process."""

    name = "warm-sweeps"
    tail_pct = 90
    rounds = 10
    trace_rounds = 2

    # The GP pairs of every round, as (trap, d, grid_points, decade of N a
    # in 0.1..1e5): each trap and each d three times, each grid twice, each
    # decade once.  Every round has the same shapes, so every round carries
    # the same mix of GP costs.  The pair that sits at the round's median
    # (8000 points, N a in 10..100) costs clearly more than the four GP ops
    # below it and less than those above, so op_p50_s does not flip between
    # two kinds of op from seed to seed.
    GP_PAIRS = [("harmonic", 3, 500, -1), ("power:s=4", 3, 2000, 0),
                ("harmonic", 3, 8000, 1), ("power:s=4", 2, 8000, 2),
                ("harmonic", 2, 2000, 3), ("power:s=4", 2, 500, 4)]

    def batch(self, rng):
        h = _Halton(rng)
        rounds = []
        for r in range(self.rounds):
            group = []
            for k, (trap, dim, points, decade) in enumerate(self.GP_PAIRS):
                n, g = h.draw(f"gp{k}", (2.0, 100.0, "log"),
                              (10.0 ** decade, 10.0 ** (decade + 1), "log"))
                pair = {"pair": f"{r}.{k}", "N": n}
                common = {"trap": trap, "dim": dim, "grid_points": points}
                group.append(_cli_op("gp", "gp", dict(common, n=n, coupling=g / n),
                                     dict(pair, role="N")))
                group.append(_cli_op("gp", "gp", dict(common, n=1.0, coupling=g),
                                     dict(pair, role="1")))
            trap = ("harmonic", "power:s=4")[r % 2]
            g_lo, g_hi = h.draw("gp-tf-limit", (5.0, 20.0), (5e3, 2e4))
            group.append(_cli_op("gp-tf-limit", "gp-tf-limit",
                                 {"trap": trap, "g_grid": f"{g_lo!r}:{g_hi!r}:4:log"}))
            for dim in (3, 2):
                n, g = h.draw(f"tf{dim}", (1.0, 10.0), (0.1, 1e5, "log"))
                group.append(_cli_op("tf", "tf", {"trap": trap, "dim": dim, "n": n,
                                                  "coupling": g}))
            y_lo, y_hi = h.draw("bounds3", (1e-14, 1e-10, "log"), (1e-5, 1e-4, "log"))
            group.append(_cli_op("bounds3d", "bounds",
                                 {"dim": 3, "y_grid": f"{y_lo!r}:{y_hi!r}:20000:log"},
                                 {"points": 20000}))
            x_lo, x_hi = h.draw("bounds2", (1e-32, 1e-28, "log"), (1e-7, 1e-6, "log"))
            group.append(_cli_op("bounds2d", "bounds",
                                 {"dim": 2, "rho_a2_grid": f"{x_lo!r}:{x_hi!r}:25:log"}))
            rho_lo, rho_hi = h.draw("foldy", (0.5, 2.0), (128.0, 512.0))
            group.append(_cli_op("foldy", "foldy",
                                 {"rho_grid": f"{rho_lo!r}:{rho_hi!r}:3:log"}))
            a_val, frac = h.draw("bogolubov", (0.5, 10.0), (0.05, 0.95))
            group.append(_cli_op("bogolubov", "bogolubov",
                                 {"a_value": a_val, "b_value": float(f"{a_val * frac:.6g}"),
                                  "n_max": 200}))
            rng.shuffle(group)
            rounds.append(group)
        self.gp_energy = {}
        return rounds, []

    def load(self):
        self.cli = importlib.import_module("bosegas.cli")
        verify_import(self.cli.__file__, self.root)

    def execute(self, op, tracer=None):
        report = self.cli.run(self.cli.parse_config(op.argv))
        if tracer is None:
            return report.rows, report.to_csv(), report.to_json()
        with tracer.span("cli.report.serialize"):
            csv, js = report.to_csv(), report.to_json()
        tracer.counts["cli.report.bytes"] += len(csv) + len(js)
        return report.rows, csv, js

    def check(self, op, out, gate):
        rows, csv, js = out
        check_report(op.argv[0], op.params, rows, gate)
        if "pair" in op.params:
            pair = op.params["pair"]
            self.gp_energy[(pair, op.params["role"])] = rows[0]["E"]
            big, unit = (self.gp_energy.get((pair, role)) for role in ("N", "1"))
            if big is not None and unit is not None:
                n = op.params["N"]
                gate.close("E(N,a) = N E(1,Na)", abs(big - n * unit) / abs(big),
                           orc.GP_SCALING_TOL)
        return None, _body(csv) + _body(js)


WORKLOADS = {w.name: w for w in (CliCold, Scatter, WarmSweeps)}
