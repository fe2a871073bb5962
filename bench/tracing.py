"""Outside-in spans around the public functions of each picgof module.

The tracer rebinds every public function (and public classmethod) of the
layer modules, in every picgof module namespace that refers to it, to a
wrapper that records a span.  Worker pools are traced by substituting a
``ProcessPoolExecutor`` subclass whose span runs from construction to
shutdown.  Nothing under ``src/`` changes; ``uninstall`` restores the
original bindings.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Calls run on one thread, so enclosed spans never overlap
and the self times of all spans add up to the root spans' durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "schemes", "distributions", "sampling", "reliability", "gof", "montecarlo")


class Tracer:
    def __init__(self):
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        #: layer -> seconds inside the outermost span of that layer
        self.layer_total: dict[str, float] = defaultdict(float)
        self.pool_spinups = 0
        self.workers_used = 0
        #: replications computed in this process, not by pool workers
        self.inline_reps = 0
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def begin(self, layer: str) -> list[float]:
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def end(self, layer: str, record: list, frame: list[float]) -> None:
        duration = time.perf_counter() - frame[0]
        self._stack.pop()
        record[0] += 1
        record[1] += duration
        record[2] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self._depth[layer] -= 1
        if not self._depth[layer]:
            self.layer_total[layer] += duration

    def wrap(self, name: str, fn):
        layer = name.partition(".")[0]
        record = self._record(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = begin(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                end(layer, record, frame)

        return traced

    def _count_inline_reps(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            spinups = self.pool_spinups
            result = fn(*args, **kwargs)
            if self.pool_spinups == spinups:
                self.inline_reps += len(result)
            return result

        return counted

    def _pool_class(self, base):
        tracer = self
        record = self._record("montecarlo.pool")

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.pool_spinups += 1
                tracer.workers_used = max(tracer.workers_used, max_workers or 0)
                self._trace_frame = tracer.begin("montecarlo")
                super().__init__(max_workers, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    frame, self._trace_frame = self._trace_frame, None
                    if frame is not None:
                        tracer.end("montecarlo", record, frame)

        return TracedPool

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"picgof.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if isinstance(member, classmethod) and not attr.startswith("_"):
                            span = f"{layer}.{name}.{attr}"
                            self._patches.append((obj, attr, member))
                            setattr(obj, attr, classmethod(self.wrap(span, member.__func__)))
        montecarlo = sys.modules["picgof.montecarlo"]
        rs = montecarlo.replicated_statistics
        wrappers[rs] = self._count_inline_reps(wrappers[rs])
        for module_name, module in list(sys.modules.items()):
            if module_name != "picgof" and not module_name.startswith("picgof."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        self._patches.append((montecarlo, "ProcessPoolExecutor", montecarlo.ProcessPoolExecutor))
        montecarlo.ProcessPoolExecutor = self._pool_class(montecarlo.ProcessPoolExecutor)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
