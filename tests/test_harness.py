"""The test settings themselves: a failing test must fail alone.  And the
code base itself: every function in the package has a caller outside the
tests, and every name a module lists in `__all__` exists."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

_FAILING_FIRST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    assert True
'''


def test_a_failing_hypothesis_test_fails_only_itself(tmp_path):
    # under this project's settings (every warning an error), Hypothesis
    # once turned its own failure report into an INTERNALERROR that ended
    # the run before the next test
    (tmp_path / "test_probe.py").write_text(_FAILING_FIRST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"})
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out


# called by the import system (PEP 562), never by name
_IMPORT_HOOKS = {"__getattr__", "__dir__"}


def _names_read(node):
    """Every name a piece of code reads: bare names and attribute names."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_function_in_the_package_is_reached_outside_the_tests():
    # A module-level function or class must be read by name, transitively,
    # from code that runs without the tests: module-level statements (the
    # CLI's runner table and `__main__` block among them), decorators, the
    # `verify` registry (the checks `_entry` registers), the demos and
    # perfbench.  Reaching is by name, so a name defined twice counts as
    # reached when either is; an import or an `__all__` string reads nothing.
    defs = {}
    todo = set()
    for path in sorted((ROOT / "src" / "bosegas").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                todo |= _names_read(node)
                continue
            defs.setdefault(node.name, []).append(node)
            for decorator in node.decorator_list:
                todo |= _names_read(decorator)
                if isinstance(decorator, ast.Call) \
                        and getattr(decorator.func, "id", None) == "_entry":
                    todo.add(node.name)
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            todo |= _names_read(ast.parse(path.read_text()))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in defs.get(name, ()):
            todo |= _names_read(node) - reached
    unreached = sorted(set(defs) - reached - _IMPORT_HOOKS)
    assert not unreached, f"reached only from tests, if at all: {unreached}"


def test_every_name_in_each_all_exists():
    # perfbench's tracer and `import *` read these lists; a name deleted
    # from its module but left in `__all__` is caught here
    modules = ["bosegas"] + [
        f"bosegas.{path.stem}"
        for path in sorted((ROOT / "src" / "bosegas").glob("*.py"))
        if path.stem != "__init__"]
    for modname in modules:
        module = importlib.import_module(modname)
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{modname}.__all__ names what is gone: {missing}"
