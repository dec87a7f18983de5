"""Spans and counters recorded from outside the program.

The tracer swaps the module attributes that the pipeline looks up at
call time for timing wrappers, keeps every span total in memory, and
puts the original functions back when it closes.  A span's self time is
its duration minus the time of the spans nested in it; the benchmark is
single-threaded, so nested spans never overlap one another and that
difference is exactly the uncovered part of the interval.

Warnings are counted by category and by the innermost open span (the
layer that emitted them), not silenced.
"""

from __future__ import annotations

import sys
import time
import warnings
from collections import Counter, defaultdict

PACKAGE = "mmpass"


class Tracer:
    """Span totals keyed by span name.

    ``clock`` is injectable so tests can drive the self-time arithmetic
    with fake timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []       # [name, start, child_time] per open span
        self._patched = []     # (owner, attr, original)

    @property
    def current(self) -> str:
        return self._stack[-1][0] if self._stack else "op"

    def enter(self, name: str):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, func, name: str, on_result=None):
        """``func`` inside a span; ``on_result(tracer, args, kwargs,
        result)`` records counts derived from the call."""
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        traced.__wrapped__ = func  # inspect.signature reads through it
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None):
        """Wrap ``owner.attr`` and every other binding of the same
        function object in the loaded mmpass modules, so calls that go
        through a ``from x import f`` name are traced too."""
        original = getattr(owner, attr)
        traced = self.wrap(original, name, on_result)
        targets = [(owner, attr)]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    targets.append((module, key))
        for target, key in targets:
            self._patched.append((target, key, getattr(target, key)))
            setattr(target, key, traced)

    def restore(self):
        """Put back every swapped attribute, newest first."""
        while self._patched:
            target, key, original = self._patched.pop()
            setattr(target, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class WarningCounter:
    """Counts every warning by (category, layer) while active.

    ``layer`` is a callable naming the code that is running; the
    counter installs an "always" filter so repeated messages are all
    counted, and prints nothing.
    """

    def __init__(self, layer=lambda: "op"):
        self.layer = layer
        self.counts = Counter()
        self._ctx = None

    def _record(self, message, category, filename, lineno, file=None,
                line=None):
        self.counts[(category.__name__, self.layer())] += 1

    def __enter__(self):
        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc):
        self._ctx.__exit__(*exc)
        return False

    def total(self, layer: str | None = None) -> int:
        return sum(n for (_, lay), n in self.counts.items()
                   if layer is None or lay == layer)
