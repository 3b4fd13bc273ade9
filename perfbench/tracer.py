"""Span tracer for the traced run, and a parser for `-X importtime` output.

The tracer wraps, at run time, the public functions of each bosegas layer
module (the function names in its ``__all__``) and every module-level
reference to them inside the package, so that a call through
``bosegas.scattering.integrate_ode`` is traced as well as one through
``bosegas.numerics.integrate_ode``.  Private functions are never wrapped and
nothing under ``src/`` is edited.  Names are resolved when the tracer is
installed: a name that a later version of the package drops is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "scattering", "numerics", "potentials", "gp", "homogeneous",
          "bogolubov")

# Called once per ODE right-hand-side evaluation: a span each would cost more
# than the work it measures, so these are counted only.
COUNT_ONLY = frozenset({"potentials.pair_value", "potentials.trap_value"})

# The first argument is the integrand or the function whose root is sought;
# its evaluations are counted under "<name>.evals".
COUNTS_EVALS = frozenset({"numerics.quad", "numerics.find_root"})

# Work counters read from a traced function's return value.
RESULT_COUNTS = {"gp.gp_minimize": ("iterations", "gp.gp_minimize.iterations")}


class Tracer:
    """In-memory spans (name, start, end, parent, op) plus event counts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_op = -1
        self.counts = Counter()
        self.wrapped = set()
        self._patches = []

    # --- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Record a span measured elsewhere, such as in a child process."""
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)
        return idx

    # --- wrapping ----------------------------------------------------------

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, qualname: str, fn):
        if qualname in COUNT_ONLY:
            return functools.wraps(fn)(self._counting(fn, qualname + ".calls"))
        evals = qualname + ".evals" if qualname in COUNTS_EVALS else None
        attr, counter = RESULT_COUNTS.get(qualname, (None, None))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if evals and args:
                args = (tracer._counting(args[0], evals),) + args[1:]
            idx = tracer.open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attr:
                tracer.counts[counter] += getattr(result, attr, 0)
            return result
        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"bosegas.{layer}")
            except ImportError:
                continue
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and id(fn) not in originals:
                    originals[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
                    self.wrapped.add(f"{layer}.{name}")
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != "bosegas":
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # --- analysis ------------------------------------------------------------

    def _has_ancestor(self, i: int, nid: int) -> int:
        """Index of the nearest ancestor of span i named nid, or -1."""
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return p
            p = self.parent[p]
        return -1

    def summary(self):
        """Inclusive time (outermost spans only), self time and call count
        per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += dur[i]
        inclusive, self_time, calls = defaultdict(float), defaultdict(float), Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] += 1
            self_time[name] += dur[i] - children[i]
            if self._has_ancestor(i, self.name_id[i]) < 0:
                inclusive[name] += dur[i]
        return inclusive, self_time, calls

    def calls_under(self, name: str, ancestor: str):
        """Durations of `name` spans grouped by their nearest `ancestor` span,
        each group in call order."""
        groups = defaultdict(list)
        if name not in self._ids or ancestor not in self._ids:
            return groups
        nid, aid = self._ids[name], self._ids[ancestor]
        for i in range(len(self.start)):
            if self.name_id[i] == nid:
                a = self._has_ancestor(i, aid)
                if a >= 0:
                    groups[a].append(self.end[i] - self.start[i])
        return groups

    def root_time_by_op(self):
        """Per op: (op span duration, summed duration of its direct children)."""
        out = {}
        if "op" not in self._ids:
            return out
        oid = self._ids["op"]
        for i in range(len(self.start)):
            if self.name_id[i] == oid:
                out[i] = [self.end[i] - self.start[i], 0.0]
        for i in range(len(self.start)):
            if self.parent[i] in out:
                out[self.parent[i]][1] += self.end[i] - self.start[i]
        return list(out.values())

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.op[i]}\n")


# --- -X importtime ---------------------------------------------------------------

def parse_importtime(stderr: str, marker: str):
    """Split `-X importtime` lines at `marker` into (before, after) lists of
    (nesting level, module name, cumulative seconds)."""
    before, after = [], []
    current = before
    for line in stderr.splitlines():
        if line.strip() == marker:
            current = after
            continue
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        level = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
        current.append((level, fields[2].strip(), int(fields[1]) * 1e-6))
    return before, after


def top_level_seconds(entries, prefix=None) -> float:
    """Cumulative time of the top-level imports, optionally only those of
    modules named `prefix` or `prefix.*`."""
    return sum(cum for level, name, cum in entries if level == 0
               and (prefix is None or name.split(".")[0] == prefix))


def outermost_seconds(entries, prefix: str) -> float:
    """Cumulative time of the outermost imports of package `prefix`, at any
    nesting level (lines come children first, so scan parents first)."""
    total, stack = 0.0, []
    for level, name, cum in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = name.split(".")[0] == prefix
        if inside and not any(top == prefix for _, top in stack):
            total += cum
        stack.append((level, name.split(".")[0]))
    return total
