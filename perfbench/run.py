#!/usr/bin/env python3
"""bosegas benchmark: three closed-loop workloads with closed-form oracles.

    python3 perfbench/run.py --workload cli-cold|scatter|warm-sweeps|all \
        --seed N --seconds S --trace 0|1

Run it from anywhere; it measures the package under src/ next to this
directory.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
lines before it give provenance, known-defect outcomes and the SHA-256 of
every report body, and a full record (with the spans of a traced run) goes
to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# One thread of load: pin BLAS/OpenMP before numpy can be imported, drop the
# package's own sweep threads, and make every child import the checkout.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("BOSEGAS_THREADS", None)
os.environ["PYTHONPATH"] = str(SRC)
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import workloads  # noqa: E402
from child import MARKER  # noqa: E402
from tracer import Tracer, outermost_seconds, parse_importtime, top_level_seconds  # noqa: E402

SETUP_REPEATS = 3
INTERP_REPEATS = 5

# A shared machine, such as the 2-core VM of the README's baseline, drifts in
# speed by tens of percent within minutes.  Every REFERENCE_EVERY_S of a
# timed run the benchmark times a fixed pure-Python loop.  End-to-end times
# are reported in seconds at the speed at which that loop takes
# REFERENCE_NOMINAL_S: raw seconds times REFERENCE_NOMINAL_S over the run's
# median loop time.  The loop is benchmark code, so a change to bosegas moves
# these numbers as it moves raw ones.
REFERENCE_EVERY_S = 0.2
REFERENCE_NOMINAL_S = 0.01


def reference_s() -> float:
    """Wall time of the fixed reference loop: the machine's speed now."""
    t0 = perf_counter()
    acc, x = 0, 0.0
    for i in range(100_000):
        acc += i * i
        x = x * 0.5 + 1.0
    return perf_counter() - t0


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- one op ------------------------------------------------------------------------

class Runner:
    """Runs and checks ops; remembers the first report body of each input."""

    def __init__(self, wl):
        self.wl = wl
        self.first_sha = {}     # input key -> SHA-256 of its first body

    def run(self, op, tracer=None, cli_layers=None) -> dict:
        """Time one op (traced if a tracer is given) and check its output."""
        error = out = None
        idx = tracer.open("op") if tracer and cli_layers is None else None
        t0 = perf_counter()
        try:
            if cli_layers is None:
                out = self.wl.execute(op, tracer)
            else:
                out = self.wl.execute_traced(op, tracer, cli_layers)
        except Exception as exc:     # a failed op is counted, not fatal
            error = workloads.error_of(exc)
        wall = perf_counter() - t0
        if idx is not None:
            tracer.close(idx)
        return self.check(op, out, wall, error)

    def check(self, op, out, wall, error=None) -> dict:
        """Apply the oracles and the determinism check to one op's output."""
        gate = oracles.Gate()
        if error is None:
            error, body = self.wl.check(op, out, gate)
            if body is not None:
                sha = hashlib.sha256(body.encode()).hexdigest()
                if self.first_sha.setdefault(op.key, sha) != sha:
                    gate.breaches.append("report body differs from an earlier "
                                         "run of the same input")
        return {"key": op.key, "kind": op.kind, "wall_s": wall, "error": error,
                "breaches": gate.breaches, "margin": gate.min_margin}


def failed(rec) -> bool:
    return bool(rec["error"] or rec["breaches"])


# --- set-up ------------------------------------------------------------------------

def timed_setup(args, marker=False):
    """Generate the inputs, import the package, warm up: (workload, seconds)."""
    t0 = perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.load()
    if marker:
        print(MARKER, file=sys.stderr, flush=True)
    wl.warm_up()
    return wl, perf_counter() - t0


def setup_samples(args, trace: bool):
    """Set the workload up several times; return (workload, samples, imports).

    An in-process workload pays its import only once per process, so all but
    the last set-up run in fresh interpreters that report their own time.
    """
    samples, imports = [], {}
    repeats = 1 if trace else SETUP_REPEATS
    if workloads.WORKLOADS[args.workload].in_process:
        for _ in range(max(1, repeats - 1)):
            cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
                str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=170, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
            samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
            if trace:
                before, after = parse_importtime(proc.stderr, MARKER)
                imports = {"import.bosegas_cli_s": top_level_seconds(before, "bosegas"),
                           "import.scipy_s": outermost_seconds(before, "scipy"),
                           "import.lazy_s": top_level_seconds(after)}
        wl, seconds = timed_setup(args)
        samples.append(seconds)
    else:
        proc = subprocess.run([sys.executable, "-c",
                               "import bosegas; print(bosegas.__file__)"],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        workloads.verify_import(proc.stdout.strip(), ROOT)
        for _ in range(repeats):
            wl, seconds = timed_setup(args)
            samples.append(seconds)
    return wl, samples, imports


# --- provenance --------------------------------------------------------------------

def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "bosegas").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": _commit(), "src_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree; 'none' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


# --- the run -------------------------------------------------------------------------

def measure(args) -> dict:
    trace = bool(args.trace)
    wl, setups, imports = setup_samples(args, trace)
    runner = Runner(wl)
    warm = [runner.check(op, out, 0.0, error) for op, out, error in wl.warm]
    records = []
    layers = defaultdict(list)
    tracer = Tracer() if trace else None
    references = []
    if not trace:
        deadline = perf_counter() + args.seconds
        next_reference = 0.0
        i = 0
        while i == 0 or perf_counter() < deadline:
            if perf_counter() >= next_reference:
                references.append(reference_s())
                next_reference = perf_counter() + REFERENCE_EVERY_S
            records.append(runner.run(wl.ops[i % len(wl.ops)]))
            i += 1
        traced = []
    else:
        # The same ops twice: untraced, then traced; the ratio of the two
        # walls is the tracing overhead.
        records = [runner.run(op) for op in wl.trace_ops]
        traced = []
        if wl.in_process:
            tracer.install()
        try:
            for i, op in enumerate(wl.trace_ops):
                tracer.current_op = i
                traced.append(runner.run(op, tracer,
                                         None if wl.in_process else layers))
        finally:
            tracer.uninstall()
    probes = [runner.run(op) for op in wl.probes]
    wl.close()
    return {"wl": wl, "setups": setups, "imports": imports, "warm": warm,
            "records": records, "references": references,
            "traced": traced, "probes": probes, "layers": layers,
            "tracer": tracer, "runner": runner}


def end_to_end(run, scale: float) -> dict:
    """The end-to-end metrics, with times multiplied by `scale`."""
    wl, recs = run["wl"], run["records"]
    walls = [r["wall_s"] * scale for r in recs]
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return {
        "ops_per_s": len(walls) / sum(walls),
        "op_p50_s": percentile(walls, 50),
        "op_tail_s": percentile(walls, wl.tail_pct),
        "setup_s": statistics.median(run["setups"]) * scale,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
    }


def interpreter_start_s() -> float:
    """Median wall time of `python -c pass`: the floor under every CLI op."""
    walls = []
    for _ in range(INTERP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def per_layer(run) -> tuple:
    """(metrics, absent names): every per-layer metric of the traced run.

    Times are seconds per op of the traced pass; counts are totals over it.
    A metric whose function the package no longer exports reads 0 and is
    listed as absent.
    """
    wl, tracer, traced, untraced = run["wl"], run["tracer"], run["traced"], run["records"]
    inclusive, self_time, calls = tracer.summary()
    counts = tracer.counts
    n_ops = len(traced)
    m, absent = {}, []

    def put(name, value, *needs):
        if wl.in_process and any(n not in tracer.wrapped for n in needs):
            absent.append(name)
            value = 0.0
        m[name] = value

    m["import.interp_s"] = interpreter_start_s()
    if wl.in_process:
        m.update(run["imports"])
        m["cli.main_s"] = 0.0
    else:
        lay = run["layers"]
        m["import.bosegas_cli_s"] = statistics.median(lay["import.bosegas_cli_s"])
        m["import.scipy_s"] = statistics.median(lay["import.scipy_s"])
        m["import.lazy_s"] = statistics.fmean(lay["import.lazy_s"])
        m["cli.main_s"] = statistics.median(lay["cli.main_s"] or [0.0])

    solve, ode = "scattering.solve_zero_energy", "numerics.integrate_ode"
    solves = calls.get(solve, 0)
    groups = tracer.calls_under(ode, solve).values()
    ode_total = sum(sum(g) for g in groups)
    rerun = sum(sum(g[1:]) for g in groups)
    put(f"{solve}.self_s", self_time.get(solve, 0.0) / n_ops, solve)
    put(f"{ode}.s", inclusive.get(ode, 0.0) / n_ops, ode)
    put(f"{ode}.calls_per_solve", sum(map(len, groups)) / solves if solves else 0.0,
        ode, solve)
    put(f"{ode}.rerun_share", rerun / ode_total if ode_total else 0.0, ode, solve)
    put("potentials.pair_value.calls_per_solve",
        counts["potentials.pair_value.calls"] / solves if solves else 0.0,
        "potentials.pair_value", solve)

    by_family = defaultdict(list)
    for rec in untraced + run["probes"]:
        by_family[rec["kind"]].append(rec["wall_s"])
    for fam in ("well3d", "stiff3d", "table3d", "steptail3d", "hardcore3d", "well2d",
                "disc2d"):
        m[f"scatter.{fam}.op_p50_s"] = statistics.median(by_family[fam] or [0.0])

    errors = Counter(r["error"] for r in traced + run["probes"] if r["error"])
    for name in ("numerics.errors.StepSizeUnderflow", "gp.errors.ValueError"):
        m[name] = errors.pop(name, 0)
    m["errors.other"] = sum(errors.values())
    m["fail_frac"] = sum(map(failed, traced)) / n_ops

    gp = "gp.gp_minimize"
    gp_s, iterations = inclusive.get(gp, 0.0), counts[f"{gp}.iterations"]
    put(f"{gp}.s", gp_s / n_ops, gp)
    put(f"{gp}.iterations", iterations, gp)
    put(f"{gp}.s_per_iteration", gp_s / iterations if iterations else 0.0, gp)
    for name in ("gp.tf_solve", "homogeneous.cell_lower_bound", "bogolubov.fock_oracle",
                 "bogolubov.mode_integral_energy"):
        put(f"{name}.s", inclusive.get(name, 0.0) / n_ops, name)
    for name in ("numerics.quad", "numerics.find_root"):
        put(f"{name}.evals", counts[f"{name}.evals"], name)
    closed = ("homogeneous.dyson_upper_ratio", "homogeneous.dilute_lower_ratio",
              "homogeneous.schick_2d_bounds")
    put("homogeneous.closed_form_bounds.s",
        sum(inclusive.get(n, 0.0) for n in closed) / n_ops, *closed)
    put("cli.run.self_s", self_time.get("cli.run", 0.0) / n_ops, "cli.run")
    m["cli.report.serialize_s"] = inclusive.get("cli.report.serialize", 0.0) / n_ops
    m["cli.report.bytes"] = counts["cli.report.bytes"]

    margins = [r["margin"] for r in untraced + traced + run["probes"] if not r["error"]]
    m["check.min_margin"] = min(margins) if margins else oracles.MARGIN_CAP
    m["trace.overhead_frac"] = (sum(r["wall_s"] for r in traced)
                                / sum(r["wall_s"] for r in untraced) - 1.0)
    roots = tracer.root_time_by_op()
    m["trace.unattributed_frac"] = (sum(op - kids for op, kids in roots)
                                    / sum(op for op, _ in roots)) if roots else 0.0
    return m, absent


def emit(args, run, metric_defs) -> int:
    wl = run["wl"]
    prov = provenance()
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("setup_s samples " + json.dumps(run["setups"]))
    for rec in run["probes"]:
        outcome = rec["error"] or ("breach: " + "; ".join(rec["breaches"])
                                   if rec["breaches"] else "ok")
        print(f"known_defect_probe {rec['kind']} {outcome} :: {rec['key']}")
    for key, sha in run["runner"].first_sha.items():
        print(f"body_sha256 {sha} {key}")
    measured = run["traced"] if args.trace else run["records"]
    n_failed = sum(map(failed, measured))
    errors = Counter(r["error"] for r in measured + run["probes"] if r["error"])
    for rec in measured:
        if rec["breaches"]:
            print(f"breach {rec['kind']}: {'; '.join(rec['breaches'])} :: {rec['key']}")
    print(f"ops {len(measured)} failed {n_failed} fail_frac "
          f"{n_failed / len(measured):.6g} [1] errors {dict(errors)}")

    absent = []
    if args.trace:
        values, absent = per_layer(run)
    else:
        reference = statistics.median(run["references"])
        print(f"reference_s median {reference!r} of {len(run['references'])} "
              f"(nominal {REFERENCE_NOMINAL_S})")
        for name, raw in end_to_end(run, 1.0).items():
            print(f"raw {name} {raw!r}")
        values = end_to_end(run, REFERENCE_NOMINAL_S / reference)
    metrics = {}
    for d in metric_defs:
        if d["name"] not in values:
            raise RuntimeError(f"metric {d['name']} was not computed")
        metrics[d["name"]] = {"value": values[d["name"]], "unit": d["unit"]}
        print(f"metric {d['name']} {values[d['name']]!r} {d['unit']}")
    if absent:
        print("absent (name no longer exported by the package): " + ", ".join(absent))
    correct = not any(r["breaches"] for r in
                      measured + run["records"] + run["probes"] + run["warm"])
    for rec in run["warm"] + run["probes"]:
        if rec["breaches"]:
            print(f"breach {rec['kind']}: {'; '.join(rec['breaches'])} :: {rec['key']}")
    result = {"correct": correct, "attempted": len(measured), "failed": n_failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({
        "provenance": prov, "setup_s": run["setups"], "records": run["records"],
        "traced": run["traced"], "probes": run["probes"], "absent": absent,
        "reference_s": run["references"],
        "body_sha256": run["runner"].first_sha, "result": result}, indent=1))
    if args.trace:
        run["tracer"].write(stem.with_suffix(".spans.csv.gz"))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    table = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        if proc.returncode == 0:
            result = json.loads(proc.stdout.splitlines()[-1])
            table.append((name, "fail_frac", result["failed"] / result["attempted"], "1"))
            for metric, v in result["metrics"].items():
                table.append((name, metric, v["value"], v["unit"]))
    print("\nworkload      metric                                   value  unit")
    for name, metric, value, unit in table:
        print(f"{name:13} {metric:38} {value:>12.6g}  {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "bosegas" / "__init__.py").is_file():
        print(f"perfbench: no bosegas package at {SRC / 'bosegas'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(args, marker=True)[1]}))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = measure(args)
    return emit(args, run, spec["per_layer"] if args.trace else spec["end_to_end"])


if __name__ == "__main__":
    sys.exit(main())
