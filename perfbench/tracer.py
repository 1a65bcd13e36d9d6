"""Span tracer patched into a program's modules from outside.

Each traced function is replaced, in every module namespace that holds a
reference to it, by a wrapper that records one span: its name, start,
end, the span that was open when it began (its parent) and the id of the
check it belongs to.  Spans live in flat arrays in memory and are written
out only when the benchmark ends.  A wrapper that is entered again while
its own name is already open (a recursive function, or two entry points
sharing one name) records nothing, so counts and inclusive times refer to
outermost calls only.  Nothing is recorded while ``check_id`` is
negative, that is outside a check.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

__all__ = ["Target", "SpanTracer"]


class Target(NamedTuple):
    """A function to trace.  ``owner.attr`` is the original; ``on_result``,
    if given, maps the function's result to ``(counter, amount)`` pairs
    that are added to the current check's counters."""

    owner: object
    attr: str
    name: str
    on_result: Callable | None = None


class SpanTracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.check = array("q")
        self.name_id = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.check_id = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._undo: list = []

    # -- patching -----------------------------------------------------------

    def install(self, targets, modules):
        """Replace each target in every module of ``modules`` that binds
        it (by any attribute name), and methods on their classes."""
        for tgt in targets:
            original = getattr(tgt.owner, tgt.attr)
            wrapper = self._wrap(original, tgt)
            if isinstance(tgt.owner, type):
                self._set(tgt.owner, tgt.attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self):
        for obj, key, value in reversed(self._undo):
            setattr(obj, key, value)
        self._undo.clear()

    def _set(self, obj, key, value):
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, tgt):
        name = tgt.name
        nid = self._name_id(name)
        on_result = tgt.on_result
        open_, stack, clock = self._open, self._stack, time.perf_counter
        parent, check, name_id, t0s, t1s = (self.parent, self.check,
                                            self.name_id, self.t0, self.t1)
        counts = self.counts

        def wrapper(*args, **kwargs):
            if open_[name] or self.check_id < 0:
                return fn(*args, **kwargs)
            sid = len(t0s)
            parent.append(stack[-1] if stack else -1)
            check.append(self.check_id)
            name_id.append(nid)
            t1s.append(0.0)
            open_[name] += 1
            stack.append(sid)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
                open_[name] -= 1
            if on_result is not None:
                box = counts[self.check_id]
                for key, amount in on_result(result):
                    box[key] += amount
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def is_open(self, name) -> bool:
        return self._open[name] > 0

    # -- results ------------------------------------------------------------

    def summary(self, checks) -> Counter:
        """Per-name ``calls``, inclusive ``s`` and ``self_s`` plus the
        counters, summed over the spans of the given check ids."""
        checks = set(checks)
        child = [0.0] * len(self.t0)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.t1[sid] - self.t0[sid]
        out = Counter()
        for sid in range(len(self.t0)):
            if self.check[sid] not in checks:
                continue
            name = self.names[self.name_id[sid]]
            dur = self.t1[sid] - self.t0[sid]
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"{name}.self_s"] += dur - child[sid]
        for cid in checks:
            out.update(self.counts.get(cid, {}))
        return out

    def write(self, path):
        """Write every span as one CSV row: id, parent, check, name, start
        and end in seconds of the process clock."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,check,name,start_s,end_s\n")
            for sid in range(len(self.t0)):
                fh.write(f"{sid},{self.parent[sid]},{self.check[sid]},"
                         f"{self.names[self.name_id[sid]]},"
                         f"{self.t0[sid]!r},{self.t1[sid]!r}\n")
