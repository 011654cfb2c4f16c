"""Span tracing around the public functions of the epibvp modules.

The tracer replaces each public function at every module-level name that
refers to it inside the package, because callers look functions up by
name: ``critical`` reaches ``shooting.find_branches`` through the module,
but binds ``solve_profile`` and ``evaluate`` into its own namespace, and
``RPoly.__call__`` uses ``polyring.evaluate``.  Replacing the object at
each of those names routes every call through the wrapper.

Spans are kept in memory as ``(name, start, end, parent, case, tag)``
tuples and written out once, when the run ends.  ``tag`` carries one
per-call detail (the iteration depth of a ``boundary_residual`` call, the
number of roots a branch search returned, the CLI command).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import defaultdict
from time import perf_counter

MODULES = ("polyring", "vim", "shooting", "recover", "critical", "oracle", "cli")


def _depth(args, kwargs, result):
    n_iter = args[3] if len(args) > 3 else kwargs.get("n_iter")
    return n_iter if n_iter is not None else args[2].default_iterations


def _count(args, kwargs, result):
    return len(result)


def _command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0]


TAGS = {
    "shooting.boundary_residual": _depth,
    "shooting.find_branches": _count,
    "oracle.oracle_branches": _count,
    "cli.main": _command,
}


class Tracer:
    """Records nested spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self.case = None
        self._stack = []
        self._patches = []
        self._pid = os.getpid()

    def _wrap(self, name, fn):
        tag_of = TAGS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a forked pool worker inherits the wrapper, but its spans
            # could never reach this process
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tag = tag_of(args, kwargs, result) if tag_of and result is not None else None
                spans[index] = (name, start, end, parent, self.case, tag)

        return traced

    def install(self):
        modules = [importlib.import_module("epibvp")]
        modules += [importlib.import_module(f"epibvp.{m}") for m in MODULES]
        for short in MODULES:
            module = importlib.import_module(f"epibvp.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._patches.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,case,tag\n")
            for name, start, end, parent, case, tag in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},"
                             f"{'' if case is None else case},"
                             f"{'' if tag is None else tag}\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Children are merged before subtraction, so overlapping children are
    not counted twice, and each child is clipped to its parent's interval.
    """
    children = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


def summarise(spans) -> dict:
    """Per-name call counts, busy and self seconds, plus derived ratios."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    depth_calls = defaultdict(int)
    depth_busy = defaultdict(float)
    results = defaultdict(int)
    child_calls = defaultdict(int)
    for (name, start, end, parent, _case, tag), self_s in zip(spans, selfs):
        key = f"{name}.{tag}" if name == "cli.main" else name
        calls[key] += 1
        busy[key] += end - start
        own[key] += self_s
        if name == "shooting.boundary_residual":
            depth_calls[tag] += 1
            depth_busy[tag] += end - start
        elif tag is not None and name != "cli.main":
            results[name] += tag
        if parent >= 0:
            child_calls[(spans[parent][0], name)] += 1
    return {
        "calls": calls, "busy": busy, "self": own,
        "depth_calls": depth_calls, "depth_busy": depth_busy,
        "results": results, "child_calls": child_calls,
    }
