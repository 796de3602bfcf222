"""In-memory span tracer that wraps a package's functions from outside.

A probe names one function by its defining module and attribute
(``"correlogram.simulate:simulate_output"``, or
``"correlogram.config:RunManifest.finish"`` for a method). Installing the
tracer replaces every binding of that function object: ``from .x import y``
gives each importing module its own binding, and each binding gets its own
wrapper, so a call is traced whichever namespace it goes through. Methods
are bound once, on their class.

Each wrapped call appends one span ``[key, start, end, parent]`` to a list
held in memory; nothing is written until the caller asks for it. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """One traced function.

    ``key`` names the layer metric its self time is added to; ``None``
    makes a count-only probe that records no span, so its self time stays
    with the enclosing span. ``amount(args, kwargs, result)`` returns a
    number added to ``counters[amount_key]`` after each call.
    """

    target: str
    key: Optional[str]
    count_key: Optional[str] = None
    amount_key: Optional[str] = None
    amount: Optional[Callable] = None


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Records spans and counters for the probes it is installed with."""

    def __init__(self, probes, clock=time.perf_counter):
        self.probes = list(probes)
        self.clock = clock
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, fn, probe: Probe):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe.key is None:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                span = [probe.key, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(index)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if probe.count_key is not None:
                counters[probe.count_key] += 1
            if probe.amount_key is not None:
                counters[probe.amount_key] += probe.amount(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str) -> "Tracer":
        """Wrap every binding of each probe's function in ``package``."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(pkg.__path__, package + ".")
        ]
        try:
            for probe in self.probes:
                owner, name, original = _resolve(probe.target)
                if isinstance(owner, type):
                    self._patch(owner, name, original, probe)
                    continue
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, original, probe)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, namespace, name, original, probe):
        self._restore.append((namespace, name, original))
        setattr(namespace, name, self._wrap(original, probe))

    def uninstall(self) -> None:
        while self._restore:
            namespace, name, original = self._restore.pop()
            setattr(namespace, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self) -> dict:
        """Self time and span count per key."""
        child = [0.0] * len(self.spans)
        for key, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for (key, start, end, _), inner in zip(self.spans, child):
            entry = totals.setdefault(key, [0.0, 0])
            entry[0] += (end - start) - inner
            entry[1] += 1
        return {key: (seconds, n) for key, (seconds, n) in totals.items()}

    def root_time(self) -> float:
        """Total duration of spans with no traced parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)
