"""In-process tracer for the traced benchmark run.

The tracer replaces public functions of the eigensectors modules with
timing wrappers, from outside the package: every module attribute bound to
one of the original function objects is swapped for the wrapper, and put
back by ``uninstall``. The CLI and ``mode_scan`` look these names up at call
time, so nothing under ``src/`` changes.

Two wrapper kinds:

* ``span`` records one span per call (name, start, end, parent, stage).
* ``busy`` only adds the call's duration and a call count to its function's
  total, for cheap functions called hundreds of times per stage
  (``select_components``, ``block_averages``).

Both kinds charge their duration to the enclosing span, so a stage span's
self time is its duration minus the time its direct callees were busy.
Spans stay in memory until the run writes its results.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class _Frame:
    span_id: int
    name: str
    start: float
    parent: int | None
    stage: str
    child_s: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.busy_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.stage_busy_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, start: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(
            _Frame(
                span_id=self._next_id,
                name=name,
                start=start,
                parent=parent.span_id if parent else None,
                stage=parent.stage if parent else name,
            )
        )
        self._next_id += 1

    def _close_span(self, end: float) -> None:
        frame = self._stack.pop()
        self.spans.append(
            {
                "id": frame.span_id,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "parent": frame.parent,
                "stage": frame.stage,
                "self_s": end - frame.start - frame.child_s,
            }
        )
        self._charge(frame.name, end - frame.start)

    def _charge(self, name: str, seconds: float) -> None:
        self.busy_s[name] += seconds
        self.calls[name] += 1
        if self._stack:
            self._stack[-1].child_s += seconds
            self.stage_busy_s[self._stack[0].name][name] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        self._open(name, perf_counter())
        try:
            yield
        finally:
            self._close_span(perf_counter())

    # -- patching ----------------------------------------------------------

    def _wrapper(self, name, fn, kind, count):
        tracer = self
        if kind == "span":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._open(name, perf_counter())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close_span(perf_counter())
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._charge(name, perf_counter() - start)
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result

        return wrapper

    def install(self, package: str, targets) -> None:
        """Wrap each ``(module, function, kind, count)`` target.

        ``count(counts, args, kwargs, result)`` may add per-call work to the
        tracer's counters; it runs after the call's time is taken.
        """
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for module_name, func_name, kind, count in targets:
            owner = sys.modules[f"{package}.{module_name}"]
            original = getattr(owner, func_name)
            wrapper = self._wrapper(f"{module_name}.{func_name}", original, kind, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
