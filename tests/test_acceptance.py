"""Acceptance suite: every entry of the invariant registry at its full sample.

Tolerances, seeds, sample sizes and runtime budgets live in
`bosegas.verify.REGISTRY` and nowhere else.  Each numbered entry prints one
`ACCEPTANCE nn PASS/FAIL` line (visible with `pytest -s`) and keeps its
test name, `test_criterion_nn_<name>`; the other entries run as
`test_<suite>_<name>`.
"""

import math
import time

import numpy as np
import pytest

from bosegas import homogeneous
from bosegas.cli import parse_config, run
from bosegas.verify import REGISTRY, run_entry


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _registry_test(entry):
    def test():
        t0 = time.perf_counter()
        result = run_entry(entry, entry.n)
        elapsed = time.perf_counter() - t0
        within = entry.budget_s is None or elapsed < entry.budget_s
        detail = (f"{result.detail}; observed {result.observed:.3g} <= "
                  f"{entry.tolerance:.3g}, runtime {elapsed:.3f}s")
        if entry.number is not None:
            _report(entry.number, result.passed and within, detail)
        assert result.passed and within, detail
    return test


for _entry in REGISTRY:
    _name = f"test_{_entry.suite}_{_entry.name}" if _entry.number is None \
        else f"test_criterion_{_entry.number:02d}_{_entry.name}"
    globals()[_name] = _registry_test(_entry)


def test_criterion_18_cli_verify_and_determinism():
    def body(text):
        return "\n".join(ln for ln in text.splitlines()
                         if not ln.startswith("# timestamp"))

    identical = True
    for args in (["bounds", "--y-grid", "1e-12:1e-4:11:log"], ["verify"]):
        one = run(parse_config(args))
        two = run(parse_config(args))
        identical = identical and body(one.to_csv()) == body(two.to_csv())
    failed = [f"{r['suite']}.{r['check']}" for r in one.rows if not r["passed"]]
    _report(18, identical and not failed,
            f"verify: {len(one.rows) - len(failed)}/{len(one.rows)} checks "
            f"pass{' ' + str(failed) if failed else ''}; "
            f"CSV bodies byte-identical: {identical}")


def _nan_at(fn, call):
    """Wrap fn so that its `call`-th result turns NaN (mid-array for an
    array result)."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        value = fn(*args, **kwargs)
        if len(calls) != call:
            return value
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[len(value) // 2] = np.nan
            return value
        return math.nan
    return wrapped


@pytest.mark.parametrize("number, target, call", [
    (12, "cell_lower_ratio", 1), (13, "temple_bound", 2),
    (14, "log_quadratic_gap", 1), (17, "cell_energy_factor", 2)])
def test_nan_partway_through_a_sample_fails_its_entry(monkeypatch, number,
                                                       target, call):
    entry = next(e for e in REGISTRY if e.number == number)
    monkeypatch.setattr(homogeneous, target,
                        _nan_at(getattr(homogeneous, target), call))
    result = run_entry(entry, entry.n)
    assert not result.passed and math.isnan(result.observed), result
