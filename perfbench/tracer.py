"""In-memory span tracer that times functions by rebinding module globals.

Python looks module globals up at call time, so replacing every binding of a
function in a set of modules with a timing wrapper catches each call made
through those bindings, including calls from one traced module into another,
without editing the traced source.  Spans stay in memory until the caller
reads them; nothing is written while tracing.

The tracer keeps one call stack, so it must only see calls from one thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional


@dataclass
class Span:
    """One call of a traced function. `parent` indexes the enclosing span in
    `Tracer.spans`, or is -1 for a root span."""

    name: str
    experiment: object
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Probe:
    """What a traced function records besides its span.

    `annotate(arguments, result)` gets the call's arguments by parameter name
    and returns a dict merged into `Span.info`; it runs after the span ends, so
    its cost is not charged to the function.  With `memory`, the peak bytes
    allocated during the call, as `tracemalloc` counts them, go to
    `info["peak_bytes"]`; memory probes must not nest.
    """

    annotate: Optional[Callable[[Mapping, object], dict]] = None
    memory: bool = False


class Tracer:
    def __init__(self, probes: Mapping[str, Probe], clock: Callable[[], float] = time.perf_counter):
        self.probes = dict(probes)
        self.clock = clock
        self.spans: List[Span] = []
        self.experiment: object = None
        self.present: set = set()
        self._stack: List[int] = []

    @contextlib.contextmanager
    def installed(self, modules: Mapping[str, object]) -> Iterator["Tracer"]:
        """Wrap every probed function while the block runs.

        A probe is named `<module>.<function>` after a key of `modules`; every
        binding of that function object in any of `modules` is wrapped, and
        all are restored on exit.  A probed name that `modules` does not
        define stays out of `present`, so it reads as absent.
        """
        originals = {}
        for name in self.probes:
            mod_name, _, attr = name.rpartition(".")
            fn = getattr(modules.get(mod_name), attr, None)
            if callable(fn):
                originals[id(fn)] = (name, fn)
        saved = []
        wrappers = {}
        try:
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if id(value) not in originals:
                        continue
                    name, fn = originals[id(value)]
                    if name not in wrappers:
                        wrappers[name] = self._wrap(name, fn, self.probes[name])
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[name])
            self.present = set(wrappers)
            yield self
        finally:
            for mod, attr, value in reversed(saved):
                setattr(mod, attr, value)

    def _wrap(self, name: str, fn: Callable, probe: Probe) -> Callable:
        signature = inspect.signature(fn) if probe.annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, self.experiment, stack[-1] if stack else -1)
            stack.append(len(self.spans))
            self.spans.append(span)
            if probe.memory:
                tracemalloc.start()
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                stack.pop()
                if probe.memory:
                    span.info = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = {**(span.info or {}), **probe.annotate(bound.arguments, result)}
            return result

        return traced


def self_seconds(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def group(spans: List[Span]) -> Dict[str, List[int]]:
    """Span indices by span name, in call order."""
    out: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        out.setdefault(s.name, []).append(i)
    return out
