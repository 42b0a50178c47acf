"""Outside-in span tracer for the sesame pipeline.

The tracer wraps public functions from outside the program: it rebinds
the module attribute in the defining module and in every other loaded
module of the package that imported the same object by name, so that a
call through either path is recorded and calls nest (for example
`iterate_construction` -> `build_model`). Methods are wrapped by
rebinding the class attribute. Every call records a span (name, start,
end, parent); spans stay in memory until the caller writes them out.
The originals are restored when the tracer exits, also on error.

A target that no longer exists (renamed or deleted API) is reported in
`absent` rather than raising, so the benchmark survives API clean-ups.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "sesame"

# hook(span, args, kwargs, result) -> {counter name: increment}
Hook = Callable[..., dict]


@dataclass
class Target:
    """One function or method to wrap.

    `path` is an attribute path inside `module` ("build_model" or
    "EnergyModel.predict_rows"). With `span=False` calls are only
    counted, under `name`, and record no span.
    """

    module: str
    path: str
    name: str
    hook: Hook | None = None
    span: bool = True


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None       # index of the enclosing span, None for a root


class Tracer:
    """Context manager that wraps `targets` for the duration of a block."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and restoring --------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self, target: Target) -> None:
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            self.absent.append(target.name)
            return
        *outer, attr = target.path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.absent.append(target.name)
            return
        original = vars(owner)[attr]
        wrapped = self._wrap(target, original)
        self._rebind(owner, attr, original, wrapped)
        if not outer:
            # modules that imported the function by name hold their own
            # reference; rebind those too so every call path is traced
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not (mod_name == PACKAGE
                                        or mod_name.startswith(PACKAGE + ".")):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapped)

    def _rebind(self, owner, attr: str, original, wrapped) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, target: Target, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[target.name] += 1
            return result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(target.name, clock(), 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if target.hook is not None:
                self.counts.update(target.hook(span, args, kwargs, result))
            return result

        return traced if target.span else counted

    # -- derived figures -----------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def wall_s(self) -> float:
        """Total duration of the root spans."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def by_name(self) -> tuple[dict[str, float], Counter]:
        """Summed self time and call count per span name."""
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            calls[span.name] += 1
        return self_s, calls

    def to_json(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "absent": list(self.absent),
            "counts": dict(self.counts),
            "spans": [
                {"name": s.name, "start": s.start - origin,
                 "end": s.end - origin, "parent": s.parent, "self": own}
                for s, own in zip(self.spans, self.self_times())
            ],
        }
