"""Outside-in span tracer for the droptrain layers.

``Tracer.install()`` replaces the public functions of ``geometry``,
``sampling``, ``optimizer``, ``costmodel``, ``problems`` and ``cli`` (and
the public methods of the problem classes, plus ``numpy.linalg.svd``) with
wrappers that record one span per call.  No droptrain source file changes:
the modules look each other up through module attributes at call time, so
patching the attributes is enough.

A span is ``(id, name, parent, thread, iteration, t0, t1, info)``.  Each
thread keeps its own span stack, because ``droptrain run`` fans quadratic
seeds out to a thread pool.  Iterations are recognised from outside: inside
``optimizer.run``, the call ``sampling.stream(seed, k + 1)`` opens iteration
``k`` and ends the previous one; the end of the ``optimizer.run`` span ends
the last.  The ``sampling.sample`` result gives the iteration's ``min S``.

Spans stay in memory until ``dump`` writes them out when the run ends.

The free function ``problems.value_and_grad`` is a pass-through to the
problem's method, so its span and the method's span share the name
``problems.value_and_grad``; ``analysis`` counts only the outer one.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

MODULES = ("geometry", "sampling", "optimizer", "costmodel", "problems", "cli")
PROBLEM_CLASSES = ("SeparableQuadratic", "CoupledQuadratic", "TinyMlp")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        # iteration records: [run span id, k, thread, t0, t1, min S, |S|]
        self.iterations: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []      # open span records
            st.run = None      # innermost open optimizer.run span id
            st.iteration = -1  # index into self.iterations, -1 outside one
        return st

    def _open_iteration(self, st, k: int, now: float) -> None:
        self._close_iteration(st, now)
        with self._lock:
            self.iterations.append([st.run, k, threading.get_ident(), now, None, None, None])
            st.iteration = len(self.iterations) - 1

    def _close_iteration(self, st, now: float) -> None:
        if st.iteration >= 0:
            self.iterations[st.iteration][4] = now
            st.iteration = -1

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            now = time.perf_counter()
            info = None
            if name == "sampling.stream" and st.run is not None and len(args) == 2 and args[1] >= 1:
                tracer._open_iteration(st, int(args[1]) - 1, now)
            elif name == "optimizer.run":
                info = type(args[1]).__name__  # the sampling scheme names the variant
            elif name == "problems.truncated_grad":
                info = int(args[2] if len(args) > 2 else kwargs["first_layer"])
            parent = st.stack[-1][0] if st.stack else None
            with tracer._lock:
                sid = len(tracer.spans)
                rec = [sid, name, parent, threading.get_ident(), st.iteration, now, None, info]
                tracer.spans.append(rec)
            st.stack.append(rec)
            outer_run = st.run
            if name == "optimizer.run":
                st.run, st.iteration = sid, -1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec[6] = end
                st.stack.pop()
                if name == "optimizer.run":
                    tracer._close_iteration(st, end)
                    st.run = outer_run
            if name == "sampling.sample" and st.iteration >= 0:
                it = tracer.iterations[st.iteration]
                it[5], it[6] = min(result), len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, once per process."""
        import numpy as np

        from droptrain import cli, costmodel, geometry, optimizer, problems, sampling

        modules = dict(zip(MODULES, (geometry, sampling, optimizer, costmodel, problems, cli)))
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                setattr(mod, attr, self.wrap(f"{short}.{attr}", fn))
        for cls_name in PROBLEM_CLASSES:
            cls = getattr(problems, cls_name)
            for attr, fn in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                setattr(cls, attr, self.wrap(f"problems.{attr}", fn))
        np.linalg.svd = self.wrap("numpy.linalg.svd", np.linalg.svd)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "iterations": self.iterations}, fh)
