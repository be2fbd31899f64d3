"""Span tracing of the ``anticipate`` layers, installed from outside.

``Tracer.install`` replaces every public function and public method of the
measured modules with a wrapper that records a span (name, start, end,
parent). It also rebinds the names other modules imported, such as
``anticipate.augment.densify`` or ``anticipate.sampler.next_anticipated_controls``,
so calls across modules are caught too. A span's layer is the module that
defines the function, so ``augment`` calling ``densify`` charges the time to
``anticipation``. Generator functions record one span per resumption.

Spans stay in memory until ``write``. Meters, optional per-function hooks
that count domain quantities from arguments and results, run outside the
span they belong to; their time is kept apart as tracing overhead, so it is
charged neither to the layer nor to the bench.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import Counter, defaultdict

LAYERS = (
    "midi", "corpus", "eventio", "augment", "anticipation",
    "tokenizer", "predictor", "metrics", "sampler", "bridge",
)


class Tracer:
    def __init__(self, meters: dict | None = None):
        self.meters = meters or {}
        self.spans: list = []  # (name, start, end, parent index); None while open
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.meter_s: defaultdict = defaultdict(float)  # parent index -> meter seconds
        self.on = False
        self.regions: list[tuple[float, float]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import anticipate

        modules = {
            info.name: importlib.import_module(f"anticipate.{info.name}")
            for info in pkgutil.iter_modules(anticipate.__path__)
        }
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[layer]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{name}", obj)
                    wrapped[id(obj)] = wrapper
                    setattr(module, name, wrapper)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not getattr(obj, "_is_protocol", False)):
                    self._wrap_methods(layer, obj)
        # Rebind names imported into other modules and the package itself.
        for module in [anticipate, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, name, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            span = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(span, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(span, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(span, raw))

    # -- recording --------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float) -> None:
        self.stack.pop()
        self.spans[index] = (name, start, end, self.stack[-1] if self.stack else -1)

    def _meter(self, name: str, args, kwargs, result) -> None:
        meter = self.meters.get(name)
        if meter is None:
            return
        started = time.perf_counter()
        meter(self.counters, args, kwargs, result)
        self.meter_s[self.stack[-1] if self.stack else -1] += time.perf_counter() - started

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not tracer.on:
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        yield value
                        continue
                    index = tracer._open()
                    start = time.perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index, name, start, time.perf_counter())
                    tracer._meter(name, args, kwargs, value)
                    yield value

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, name, start, time.perf_counter())
            tracer._meter(name, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around bench-side code, such as a pipe write."""
        if not self.on:
            yield
            return
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, time.perf_counter())

    @contextlib.contextmanager
    def region(self):
        """Record spans for the duration of a ``with`` block."""
        self.on = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.on = False
            self.regions.append((start, time.perf_counter()))

    # -- results ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def self_times(self) -> list[float]:
        """Each span's own time: its duration minus children and meters."""
        own = [s[2] - s[1] - self.meter_s.get(i, 0.0) for i, s in enumerate(self.spans)]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for s, own in zip(self.spans, self.self_times()):
            layer = s[0].split(".", 1)[0]
            if layer in totals:
                totals[layer] += own
        return totals

    def self_by_name(self, name: str) -> list[float]:
        return [own for s, own in zip(self.spans, self.self_times()) if s[0] == name]

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.regions)

    @property
    def overhead_s(self) -> float:
        return sum(self.meter_s.values())

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start, end, parent (span index)."""
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")
