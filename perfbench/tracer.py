"""Span tracer that measures the magpsido layers from outside the package.

`Tracer.install()` replaces every public function of the traced modules (and
`ScenarioReport.to_json`) with a timing wrapper, in every `magpsido` module
that binds the function's name, and swaps each module's `ThreadPoolExecutor`
for a subclass that hands the submitting span down to its worker threads.
`uninstall()` restores all bindings. Spans stay in memory; `write_jsonl`
writes them out with ids and parent ids.
"""
import collections
import concurrent.futures
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

# Package modules that are layers; `_kernels` reports under the prefix `kernels`.
LAYERS = ("cli", "harness", "quantize", "_kernels", "gauge", "spectral", "decay",
          "relativistic", "mpdo")


def layer_prefix(module):
    return module.lstrip("_")


def _nbytes(*arrays):
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


# Span attributes: sizes computed from argument and result shapes, and the
# suite a `verify_suite` call ran.
ATTRS = {
    "harness.verify_suite": lambda args, res: {"suite": args[0]},
    "gauge.phase_table": lambda args, res: {"pairs": int(res.shape[0] * res.shape[1])},
    "kernels.weyl_gather": lambda args, res: {"bytes": _nbytes(args[0], args[1], res)},
    "mpdo.save_operator": lambda args, res: {"bytes": os.path.getsize(res)},
    "mpdo.load_operator": lambda args, res: {"bytes": os.path.getsize(args[0])},
}

Span = collections.namedtuple(
    "Span", "id parent name thread start end error attrs")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def _record(self, span):
        with self._lock:
            self.spans.append(span)

    def _wrap(self, name, fn):
        tracer = self
        attributes = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            error = None
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attributes is not None:
                    attrs = attributes(args, result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(Span(sid, parent, name, threading.get_ident(),
                                    start, end, error, attrs))

        return traced

    def _executor_class(self):
        tracer = self

        class PropagatingExecutor(concurrent.futures.ThreadPoolExecutor):
            """Runs each task with the submitting thread's span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run():
                    stack = tracer._stack()
                    stack.append(parent)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack.pop()

                return super().submit(run)

        return PropagatingExecutor

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in LAYERS:
            mod = importlib.import_module(f"magpsido.{module}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer_prefix(module)}.{attr}", obj)
        executor = self._executor_class()
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "magpsido" or n.startswith("magpsido."))]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
                elif obj is concurrent.futures.ThreadPoolExecutor:
                    self._set(mod, attr, executor)
        # report serialization is a method, traced in addition to functions
        report = importlib.import_module("magpsido.harness").ScenarioReport
        self._set(report, "to_json", self._wrap("harness.ScenarioReport.to_json",
                                                vars(report)["to_json"]))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path, extra=None):
        """One JSON object per span; `extra(span)` may add fields."""
        with open(path, "w") as fh:
            for s in self.spans:
                row = s._asdict()
                if extra is not None:
                    row.update(extra(s))
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def self_times(spans):
    """Self seconds of each span id.

    At every instant, the time goes to the spans that are innermost on their
    thread and have no running child on another thread; when several such
    spans run at once, they share the instant equally. A span's self time is
    therefore its duration minus the part its children cover, and the self
    times of a command's spans sum to the command's duration even when a
    thread pool runs children concurrently.
    """
    events = []
    for s in spans:
        if s.end > s.start:
            # at equal times: ends before starts, children end before and
            # start after their parents (ids grow with nesting)
            events.append((s.start, 1, s.id, s))
            events.append((s.end, 0, -s.id, s))
    events.sort(key=lambda e: e[:3])
    stacks = collections.defaultdict(list)
    running_children = collections.Counter()
    out = collections.defaultdict(float)
    prev = None
    for t, is_start, _, s in events:
        if prev is not None and t > prev:
            leaves = [st[-1] for st in stacks.values()
                      if st and running_children[st[-1].id] == 0]
            for leaf in leaves:
                out[leaf.id] += (t - prev) / len(leaves)
        prev = t
        if is_start:
            stacks[s.thread].append(s)
            if s.parent is not None:
                running_children[s.parent] += 1
        else:
            stacks[s.thread].remove(s)
            if s.parent is not None:
                running_children[s.parent] -= 1
    return out
