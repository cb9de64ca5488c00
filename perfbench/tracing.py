"""Tracing shim: per-layer spans for mpunfold, recorded from outside.

`Tracer.install()` wraps the public functions of every mpunfold module, and
a few public methods of the diagram classes, at every module binding of
them: `from .x import f` copies the name, so `reach` holds its own binding
of the successor functions, `unfold` and `oracle` of `build_function`, and
`semantics` of `check_bool_state` and `eval_rule`.  Self-recursive
functions are never wrapped (their spans would nest in themselves); they
are timed through their callers.  Generators are not wrapped either: a span
would close before the work is done.

Each call is a span.  Spans are aggregated in memory per function (calls,
total time, self time = span time minus the time of its child spans); the
spans of `cli.main` and of its direct children are also kept one by one,
with the operation they belong to and their parent, and `dump()` writes
them out when the run ends.  Explorations in `reach`
additionally count the states they expand and the successors they see.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "mpunfold"
CLASSES = {"bdd": ("DiagramManager", "FunctionRep")}
SELF_RECURSIVE = {
    "expr.evaluate",
    "expr.variables",
    "expr.to_nnf",
    "bdd.DiagramManager.from_expr",
    "bdd.DiagramManager.apply",
    "bdd.DiagramManager.neg",
}
# node-level accessors that run inside apply's recursion, millions of times
NOT_A_LAYER = {"bdd.DiagramManager.mk", "bdd.DiagramManager.triple", "bdd.DiagramManager.is_terminal"}

EXPLORERS = {"reach.reaches", "reach.reachable_set", "reach.attractors", "reach.mp_boolean_projection"}
PROJECTION = "reach.mp_boolean_projection"
SUCCESSORS = {
    "semantics.mp_successors",
    "semantics.async_successors",
    "semantics.general_successors",
    "semantics.sync_successor",
}
ROOT = "cli.main"  # every operation's outermost span
KEEP_DEPTH = 1  # spans kept one by one: the root (depth 0) and its children


class _Exploration:
    __slots__ = ("expanded", "seen", "generated", "new", "calls")

    def __init__(self):
        self.expanded: set[str] = set()
        self.seen: set[str] = set()
        self.generated = 0
        self.new = 0
        self.calls = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple[int, str, str | None, float, float]] = []
        self.explore = {"states": 0, "generated": 0, "new": 0, "seconds": 0.0,
                        "projection_calls": 0, "projection_states": 0}
        self.operations = 0  # root spans so far; identifies an operation's spans
        self._stack: list[list] = []  # [name, child seconds]
        self._current: _Exploration | None = None
        self._restore: list[tuple[object, str, object]] = []

    # --- installation ---------------------------------------------------------

    def targets(self):
        """(name, owner, attribute, function) for everything to wrap."""
        modules = {
            name[len(PACKAGE) + 1:]: mod
            for name, mod in sys.modules.items()
            if name.startswith(PACKAGE + ".")
        }
        out = []
        for short, mod in sorted(modules.items()):
            for attr, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    out.append((f"{short}.{attr}", None, attr, obj))
            for cls_name in CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in sorted(vars(cls).items()):
                    if inspect.isfunction(obj) and not attr.startswith("_"):
                        out.append((f"{short}.{cls_name}.{attr}", cls, attr, obj))
        return [
            t for t in out
            if t[0] not in SELF_RECURSIVE
            and t[0] not in NOT_A_LAYER
            and not inspect.isgeneratorfunction(t[3])
        ]

    def install(self):
        bindings = [
            mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for name, cls, attr, fn in self.targets():
            wrapper = self._wrap(name, fn)
            if cls is not None:
                self._rebind(cls, attr, wrapper)
                continue
            for mod in bindings:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, wrapper):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # --- spans ---------------------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        root = name == ROOT
        explorer = name in EXPLORERS
        successor = name in SUCCESSORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if root:  # drop what a RecursionError may have left on the stack
                stack.clear()
                self.operations += 1
            frame = [name, 0.0]
            depth = len(stack)
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            if explorer:
                self._current = _Exploration()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if depth <= KEEP_DEPTH:
                    spans.append((self.operations, name, parent, start, end))
                if explorer:
                    self._close_exploration(name, elapsed)
            if successor and stack and stack[-1][0] in EXPLORERS:
                hook_start = clock()
                self._count(name, stack[-1][0], args[1], result)
                stack[-1][1] += clock() - hook_start
            return result

        return traced

    def _count(self, name, parent, state, result):
        ex = self._current
        if ex is None or (parent == PROJECTION and name != "semantics.mp_successors"):
            return
        ex.calls += 1
        ex.expanded.add(state)
        ex.seen.add(state)
        succ = [result] if isinstance(result, str) else result
        ex.generated += len(succ)
        for t in succ:
            if t not in ex.seen:
                ex.seen.add(t)
                ex.new += 1

    def _close_exploration(self, name, elapsed):
        ex, self._current = self._current, None
        agg = self.explore
        agg["states"] += len(ex.expanded)
        agg["generated"] += ex.generated
        agg["new"] += ex.new
        agg["seconds"] += elapsed
        if name == PROJECTION:
            agg["projection_calls"] += ex.calls
            agg["projection_states"] += len(ex.expanded)

    # --- results -------------------------------------------------------------------

    def value(self, metric: str) -> float:
        """`<function>.calls|total_ms|self_ms` summed over the run."""
        name, _, field = metric.rpartition(".")
        calls, total, self_time = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "total_ms": total * 1e3, "self_ms": self_time * 1e3}[field]

    def dump(self, path, extra=None):
        data = {
            "functions": {
                name: {"calls": c, "total_ms": t * 1e3, "self_ms": s * 1e3}
                for name, (c, t, s) in sorted(self.stats.items())
                if c
            },
            "explorations": self.explore,
            "spans": [
                {"operation": op, "name": name, "parent": parent, "start": start, "end": end}
                for op, name, parent, start, end in self.spans
            ],
        }
        if extra:
            data.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
