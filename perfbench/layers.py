"""Per-layer timing taken from outside the program.

A :class:`LayerClock` wraps public functions of the program's layers at
runtime — bound methods on live objects, or class attributes that are
restored afterwards — and records, per layer, the number of calls and the
*self* time: the time inside the layer's calls minus the timed calls
nested inside them.  Nothing in the program is edited; with no clock
installed the program runs exactly as shipped.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple


class LayerClock:
    """Call counts and self seconds per layer name."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        # One accumulator of nested (child) time per open call.
        self._open: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    def wrap(self, fn: Callable, layer: str) -> Callable:
        clock = self
        perf = time.perf_counter

        def timed(*args, **kwargs):
            stack = clock._open
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                nested = stack.pop()
                clock.calls[layer] += 1
                clock.self_s[layer] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return timed

    def on_instance(self, obj: object, name: str, layer: str) -> None:
        """Time ``obj.name`` (a bound method) on this object only."""
        setattr(obj, name, self.wrap(getattr(obj, name), layer))

    def on_class(self, cls: type, name: str, layer: str) -> None:
        """Time ``cls.name`` for every caller until :meth:`installed`
        exits; plain functions and classmethods are both supported."""
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            patched: object = classmethod(
                self.wrap(original.__func__, layer))
        else:
            patched = self.wrap(original, layer)
        self._restore.append((cls, name, original))
        setattr(cls, name, patched)

    @contextmanager
    def installed(self) -> Iterator["LayerClock"]:
        """Scope of the class-level wraps: restored on exit."""
        try:
            yield self
        finally:
            while self._restore:
                cls, name, original = self._restore.pop()
                setattr(cls, name, original)
