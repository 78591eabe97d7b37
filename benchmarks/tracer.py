"""Outside-in tracer: wraps the public functions of a package's modules.

Nothing in the traced package changes.  ``install`` replaces every public
module-level function and every public instance method of the classes a
module defines with a timing wrapper, under the span name
``<module>.<function>``.  Modules that bind a function with
``from .x import y`` hold their own reference to it, so the wrapper is
set under every name, in every given namespace, that refers to the
original.  ``remove`` puts the originals back.

Durations are the calling thread's CPU time (``time.thread_time``), so
that a thread of the CLI's sweep pool waiting for the interpreter lock
does not count the wait as work.  A span's self time is its duration
minus the durations of the spans it directly caused.  Spans are aggregated in memory per thread (the CLI's
sweep solves on a thread pool) and merged by ``snapshot``: per name the
calls, total and self seconds and any extra counts, and per
(parent, child) edge the calls and total seconds.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


class Hook:
    """Per-span extras: a name suffix, a counted callable argument, a measure.

    ``suffix(args, kwargs)`` appends ``.<suffix>`` to the span name (e.g.
    the mechanism of a solve); ``count_fn_arg`` is the position of a
    callable argument whose calls are counted as ``fn_evals``;
    ``measure`` maps a count name to ``f(args, kwargs, result) -> int``.
    """

    def __init__(self, suffix=None, count_fn_arg=None, measure=None):
        self.suffix = suffix
        self.count_fn_arg = count_fn_arg
        self.measure = measure or {}


class Tracer:
    def __init__(self, modules, namespaces, hooks=None):
        """Trace the public callables defined in ``modules``.

        ``namespaces`` are the modules whose names are rebound to the
        wrappers (the traced modules plus any module that imports from
        them, such as a package ``__init__``).
        """
        self.modules = list(modules)
        self.namespaces = list(namespaces)
        self.hooks = dict(hooks or {})
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, dict]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        out = []
        for module in self.modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            methods = []
            for cls_name, cls in vars(module).items():
                if (cls_name.startswith("_") or not inspect.isclass(cls)
                        or cls.__module__ != module.__name__):
                    continue
                for name, value in vars(cls).items():
                    if not name.startswith("_") and inspect.isfunction(value):
                        methods.append((f"{layer}.{name}", cls, name, value))
            # a module function named like a method only forwards to it;
            # tracing both would count each call twice under one name
            method_names = {span for span, *_ in methods}
            for name, value in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__
                        and f"{layer}.{name}" not in method_names):
                    out.append((f"{layer}.{name}", module, name, value))
            out.extend(methods)
        return out

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for span, owner, attr, original in self.targets():
            wrapper = self._wrap(original, span, self.hooks.get(span))
            if inspect.isclass(owner):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for namespace in self.namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._restore.append((namespace, name, original))
                        setattr(namespace, name, wrapper)

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- recording --------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], {}, {})  # span stack, stats by name, stats by edge
            self._local.state = state
            with self._lock:
                self._per_thread.append((state[1], state[2]))
        return state

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats, edges = tracer._thread_state()
            name = span
            evals = None
            if hook is not None:
                if hook.suffix is not None:
                    name = f"{span}.{hook.suffix(args, kwargs)}"
                if hook.count_fn_arg is not None:
                    evals = [0]
                    inner = args[hook.count_fn_arg]

                    def counted(*a, **k):
                        evals[0] += 1
                        return inner(*a, **k)

                    args = list(args)
                    args[hook.count_fn_arg] = counted
            frame = [name, 0.0]
            stack.append(frame)
            start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.thread_time() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += elapsed
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = _Stat()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[1]
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                if evals is not None:
                    stat.counts["fn_evals"] += evals[0]
            if hook is not None:
                for count, measure in hook.measure.items():
                    stat.counts[count] += int(measure(args, kwargs, result))
            return result

        return wrapper

    def reset(self):
        """Forget everything recorded so far (wrappers stay installed)."""
        with self._lock:
            for stats, edges in self._per_thread:
                stats.clear()
                edges.clear()

    def threads_seen(self) -> int:
        """Number of threads that have recorded a span since construction."""
        with self._lock:
            return len(self._per_thread)

    def snapshot(self):
        """Merged stats: ({name: {calls, total_s, self_s, **counts}}, edges)."""
        merged: dict[str, dict] = {}
        edges: dict[tuple, list] = {}
        with self._lock:
            per_thread = [(dict(s), dict(e)) for s, e in self._per_thread]
        for stats, thread_edges in per_thread:
            for name, stat in stats.items():
                row = merged.setdefault(name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
                row["calls"] += stat.calls
                row["total_s"] += stat.total_s
                row["self_s"] += stat.self_s
                for count, value in stat.counts.items():
                    row[count] = row.get(count, 0) + value
            for key, (calls, total) in thread_edges.items():
                edge = edges.setdefault(key, [0, 0.0])
                edge[0] += calls
                edge[1] += total
        return merged, edges
